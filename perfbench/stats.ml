(** Order statistics shared by every report. *)

(** Nearest-rank percentile of a sorted array: the smallest sample with
    at least [p] percent of the samples at or below it ([nan] when
    empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(** Samples strictly above the nearest-rank [p]-th percentile of [n]:
    the support behind a tail estimate. *)
let beyond n p = n - max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n)))

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** First quartile, median and third quartile, computed exactly as
    Python's [statistics.quantiles(values, n=4)] does (its default
    "exclusive" method), so the figures here and in any external check
    agree. *)
let quartiles xs =
  let d = sorted_copy xs in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
