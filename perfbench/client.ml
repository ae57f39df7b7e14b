(** A real [sbdserve] process and closed-loop client connections to it.

    The server is spawned from the build tree of the checkout.  Every
    wait has a deadline: a server that stops reading or replying is
    killed, its in-flight requests count as timed out, and the run ends
    with what it measured. *)

module J = Sbd_obs.Obs.Json
module Jsonin = Sbd_service.Jsonin

let exe = "_build/default/bin/sbdserve.exe"
let now = Unix.gettimeofday

(** Seconds a client waits for one reply before it gives up. *)
let reply_timeout = 30.0

type conn = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  pending : Buffer.t;  (** bytes read past the last complete line *)
  mutable scanned : int;  (** prefix of [pending] known to hold no newline *)
  chunk : Bytes.t;
}

type server = {
  pid : int;
  flags : string list;
  conns : conn list;
  sock : string option;
  mutable alive : bool;
}

(* Spawned servers, killed at exit whatever path the benchmark takes. *)
let live : server list ref = ref []

let kill s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
  end

let () = at_exit (fun () -> List.iter kill !live)

let make_conn rd wr =
  Unix.set_nonblock wr;
  { rd; wr; pending = Buffer.create 4096; scanned = 0; chunk = Bytes.create 65536 }

exception Timeout
exception Closed

(** Write all of [s] then a newline, waiting at most until [deadline]. *)
let send c ~deadline s =
  let write_all s =
    let b = Bytes.unsafe_of_string s in
    let len = Bytes.length b in
    let off = ref 0 in
    while !off < len do
      let left = deadline -. now () in
      if left <= 0.0 then raise Timeout;
      match Unix.select [] [ c.wr ] [] left with
      | _, [], _ -> ()
      | _ -> (
        match Unix.single_write c.wr b !off (len - !off) with
        | n -> off := !off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> raise Closed)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  write_all s;
  write_all "\n"

(** The next complete line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_from_opt s c.scanned '\n' with
  | None ->
    c.scanned <- String.length s;
    None
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
    c.scanned <- 0;
    Some (String.sub s 0 i)

(** Read whatever is available into the buffer (one read). *)
let fill c =
  match Unix.read c.rd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise Closed
  | n -> Buffer.add_subbytes c.pending c.chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()

(** The next reply line on [c], waiting at most until [deadline]. *)
let rec recv c ~deadline =
  match take_line c with
  | Some l -> l
  | None ->
    let left = deadline -. now () in
    if left <= 0.0 then raise Timeout;
    (match Unix.select [ c.rd ] [] [] left with
    | [], _, _ -> ()
    | _ -> fill c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    recv c ~deadline

let request c line =
  let deadline = now () +. reply_timeout in
  send c ~deadline line;
  recv c ~deadline

let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(** Spawn [sbdserve] with [flags] and open [conns] connections ([> 1]
    requires [--socket]); returns the server and its set-up time: from
    spawning the process to the reply of a first [stats] request. *)
let spawn ~flags ~conns : server * float =
  if not (Sys.file_exists exe) then failwith ("perfbench: missing " ^ exe);
  let sock =
    if conns > 1 then begin
      ensure_out_dir ();
      (* relative: Unix socket paths are limited to ~100 bytes *)
      Some (Printf.sprintf "%s/s%d.sock" out_dir (Unix.getpid ()))
    end
    else None
  in
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) sock;
  let args = flags @ match sock with Some p -> [ "--socket"; p ] | None -> [] in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r
      (if sock = None then out_w else Unix.stderr)
      Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  if sock <> None then begin
    (* a socket server never reads stdin: its EOF is harmless *)
    Unix.close in_w;
    Unix.close out_r
  end;
  let s0 = { pid; flags = args; conns = []; sock; alive = true } in
  live := s0 :: !live;
  let conns =
    match sock with
    | None -> [ make_conn out_r in_w ]
    | Some path ->
      let deadline = now () +. reply_timeout in
      let rec connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> make_conn fd fd
        | exception Unix.Unix_error _ ->
          Unix.close fd;
          if now () > deadline then raise Timeout;
          Unix.sleepf 0.001;
          connect ()
      in
      List.init conns (fun _ -> connect ())
  in
  let s = { s0 with conns } in
  live := s :: List.filter (fun x -> x != s0) !live;
  ignore (request (List.hd conns) "{\"id\":\"setup\",\"op\":\"stats\"}");
  (s, now () -. t0)

(** [VmHWM] (peak resident set) of the server, in MB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Counters of a [stats] reply, by name (absent counters read 0). *)
let stats s : string -> float =
  let doc =
    match Jsonin.parse (request (List.hd s.conns) "{\"id\":\"final\",\"op\":\"stats\"}") with
    | Ok d -> d
    | Error e -> failwith ("perfbench: bad stats reply: " ^ e)
  in
  fun name ->
    match[@warning "-4"] Option.bind (Jsonin.member "stats" doc) (Jsonin.member name) with
    | Some (J.Int i) -> float_of_int i
    | Some (J.Float f) -> f
    | _ -> 0.0

(** Ask the server to drain and stop, and reap it; kill it if it does
    not stop in time. *)
let shutdown s =
  if s.alive then begin
    (match request (List.hd s.conns) "{\"id\":\"bye\",\"op\":\"shutdown\"}" with
    | _ -> ()
    | exception (Timeout | Closed) -> ());
    List.iter
      (fun c ->
        (try Unix.close c.rd with Unix.Unix_error _ -> ());
        if c.wr <> c.rd then try Unix.close c.wr with Unix.Unix_error _ -> ())
      s.conns;
    let deadline = now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ ->
        if now () > deadline then kill s
        else begin
          Unix.sleepf 0.005;
          reap ()
        end
      | _ -> s.alive <- false
      | exception Unix.Unix_error _ -> s.alive <- false
    in
    reap ();
    Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) s.sock
  end;
  live := List.filter (fun x -> x != s) !live
