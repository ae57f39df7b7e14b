(** A fixed reference kernel, timed between segments of a run to gauge
    how fast the machine runs code at that moment.  It calls nothing of
    the program under test, so a change to the program leaves it alone.

    The kernel builds and probes a hash table of boxed keys: allocation,
    minor collections and scattered reads, as the server's memo and
    hash-consing tables make.  On the shared 2-core VM the benchmark was
    tuned on, this is the kind of code other tenants slow down most: in
    a run where the server's match throughput fell by 1.71 times, this
    kernel slowed 1.60 times, a pointer chase through 32 MB 1.41 times
    and a DFA-style byte walk from the core's own caches only 1.22
    times.

    Other tenants slow one CPU at a time, so the kernel runs on the CPU
    the server last ran on: a helper process (this executable with
    [--calibrate]) is pinned to each CPU with [taskset].  Without
    [taskset], or with one CPU, the kernel runs in the benchmark's own
    process. *)

let entries = 60_000

(** One run of the kernel; the result keeps the work from being
    optimised away. *)
let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to entries do
    Hashtbl.replace h ((i * 7919) land 65535, i land 255) i
  done;
  let acc = ref 0 in
  for i = 0 to entries do
    match Hashtbl.find_opt h ((i * 31) land 65535, i land 255) with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  !acc

let sink = ref 0

(** Seconds for one run of the kernel in this process: the fastest of
    three, so that a single preemption does not count. *)
let time () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t = Unix.gettimeofday () in
    sink := !sink + kernel ();
    best := Float.min !best (Unix.gettimeofday () -. t)
  done;
  !best

(** Kernel seconds the metrics are scaled to: about what the kernel
    takes on the 2-core x86-64 VM the benchmark was tuned on, when the
    host is quiet.  Any fixed value would do; this one keeps scaled
    figures near the raw ones there. *)
let reference_s = 0.020

(** The [--calibrate] helper: time the kernel once per line read from
    standard input, and print the seconds. *)
let serve () =
  ignore (kernel ());
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.9f\n%!" (time ())
    done
  with End_of_file -> ()

(** The CPUs this process may run on, from [/proc/self/status]. *)
let allowed_cpus () =
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun k -> int_of_string a + k)
    | _ -> []
  in
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.sub l 0 i = "Cpus_allowed_list" ->
             Some (List.concat_map range (String.split_on_char ',' (String.sub l (i + 1) (String.length l - i - 1))))
           | _ -> None)
    |> Option.value ~default:[]
  with Sys_error _ | Failure _ -> []

let on_path prog =
  List.exists
    (fun d -> d <> "" && Sys.file_exists (Filename.concat d prog))
    (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:""))

type helper = { pid : int; ic : in_channel; oc : out_channel }

(** Helpers by CPU; empty when the kernel runs in this process. *)
type gauge = (int * helper) list

let stop (g : gauge) =
  List.iter
    (fun (_, h) ->
      (try close_out h.oc with Sys_error _ -> ());
      (try close_in h.ic with Sys_error _ -> ());
      try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ())
    g

let ask h =
  output_char h.oc '\n';
  flush h.oc;
  float_of_string (input_line h.ic)

(** One helper per allowed CPU, running [exe --calibrate] under
    [taskset]; [[]] when that is not possible.  Returns once every
    helper has built its buffers and timed the kernel once, so that
    nothing of their start-up overlaps the run.  The helpers stop at
    exit (they read end of file and quit). *)
let start ~exe : gauge =
  match allowed_cpus () with
  | _ :: _ :: _ as cpus when on_path "taskset" && Sys.file_exists exe ->
    let g =
      List.map
        (fun cpu ->
          let in_r, in_w = Unix.pipe ~cloexec:true () in
          let out_r, out_w = Unix.pipe ~cloexec:true () in
          let pid =
            Unix.create_process "taskset"
              [| "taskset"; "-c"; string_of_int cpu; exe; "--calibrate" |]
              in_r out_w Unix.stderr
          in
          Unix.close in_r;
          Unix.close out_w;
          (cpu, { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w }))
        cpus
    in
    at_exit (fun () -> stop g);
    List.iter (fun (_, h) -> ignore (ask h)) g;
    g
  | _ -> []

(** The CPU process [pid] last ran on ([/proc/<pid>/stat], field 39). *)
let last_cpu pid =
  try
    let s = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
    (* fields after the parenthesised command name, which may hold spaces *)
    let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    int_of_string_opt (List.nth (String.split_on_char ' ' rest) 36)
  with Sys_error _ | Not_found | Failure _ | Invalid_argument _ -> None

(** Seconds for one run of the kernel on the CPU process [pid] last ran
    on, or with [all] the mean over every CPU (for a server that runs
    on all of them); in this process when there is no helper. *)
let measure (g : gauge) ~pid ~all =
  let on h = try ask h with Sys_error _ | End_of_file | Failure _ -> time () in
  match (all, g) with
  | _, [] -> time ()
  | true, _ -> List.fold_left (fun acc (_, h) -> acc +. on h) 0.0 g /. float_of_int (List.length g)
  | false, _ -> (
    match Option.bind (last_cpu pid) (fun c -> List.assoc_opt c g) with
    | Some h -> on h
    | None -> time ())
