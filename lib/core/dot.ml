(** GraphViz rendering of SBFAs and derivative graphs: the pictures of
    Figures 2 and 5 of the paper, generated from the actual structures.

    Two views are provided, mirroring the paper's presentation:
    - {!sbfa}: one node per state, one edge per guarded transition of the
      clean DNF derivative (the "classical transitions" view of
      Figure 2a/2d, with ⊥ hidden);
    - {!sbfa_boolean}: the transition regexes rendered as edge labels on
      the Boolean-combination states (the Figure 5a view), keeping the
      conditional structure visible. *)

module Make (R : Sbd_regex.Regex.S) = struct
  module A = R.A
  module Sbfa = Sbfa.Make (R)
  module D = Sbfa.D
  module Tr = Sbfa.Tr

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let node_attrs (r : R.t) =
    let shape = if R.nullable r then "doublecircle" else "circle" in
    Printf.sprintf "[shape=%s,label=\"%s\"]" shape (escape (R.to_string r))

  (** DNF-transition view: explore the derivative graph from [r] (up to
      [max_states]) and render each guarded edge.  ⊥ states and edges are
      hidden, as in Figure 2a. *)
  let derivative_graph ?(max_states = 64) (r : R.t) : string =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "digraph sbd {\n  rankdir=LR;\n";
    Buffer.add_string buf "  init [shape=point];\n";
    let seen = Hashtbl.create 16 in
    let queue = Queue.create () in
    let node_name r = Printf.sprintf "q%d" r.R.id in
    let visit r =
      if (not (Hashtbl.mem seen r.R.id)) && Hashtbl.length seen < max_states
      then begin
        Hashtbl.add seen r.R.id ();
        Buffer.add_string buf
          (Printf.sprintf "  %s %s;\n" (node_name r) (node_attrs r));
        Queue.add r queue
      end
    in
    visit r;
    Buffer.add_string buf (Printf.sprintf "  init -> %s;\n" (node_name r));
    while not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      List.iter
        (fun (guard, target) ->
          if not (R.is_empty target) then begin
            visit target;
            if Hashtbl.mem seen target.R.id then
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s [label=\"%s\"];\n" (node_name q)
                   (node_name target)
                   (escape (Format.asprintf "%a" A.pp guard)))
          end)
        (D.transitions q)
    done;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  (** Boolean view: states of the SBFA with the full transition regex of
      each state as a label (Figure 5a's style, where the Boolean
      combination is part of the transition structure). *)
  let sbfa_boolean (m : Sbfa.t) : string =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "digraph sbfa {\n  rankdir=LR;\n  node [shape=box];\n";
    R.Set.iter
      (fun q ->
        let shape = if R.nullable q then "doubleoctagon" else "box" in
        Buffer.add_string buf
          (Printf.sprintf "  q%d [shape=%s,label=\"%s\"];\n" q.R.id shape
             (escape (R.to_string q))))
      m.Sbfa.states;
    R.Map.iter
      (fun q tr ->
        Buffer.add_string buf
          (Printf.sprintf "  q%d -> tr%d [style=dashed,arrowhead=none];\n"
             q.R.id q.R.id);
        Buffer.add_string buf
          (Printf.sprintf "  tr%d [shape=note,label=\"%s\"];\n" q.R.id
             (escape (Tr.to_string tr))))
      m.Sbfa.transitions;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end
