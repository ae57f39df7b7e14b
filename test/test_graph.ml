(* Tests for the derivative graph [G = (V, E, F, C)] of Section 5:
   differential testing of {!Sbd_solver.Graph}'s incremental Alive/Dead
   sets against a from-scratch reachability oracle on random update
   sequences, and the dead-cycle and alive-propagation cases. *)

let check = Alcotest.(check bool)

(* -- differential test against a from-scratch oracle ----------------------- *)

module Node = struct
  type t = int

  let id x = x
end

module G = Sbd_solver.Graph.Make (Node)

(* The oracle recomputes both sets from the edge lists alone: [v] is
   alive iff a final vertex is reachable from it, and dead iff every
   vertex reachable from it is closed and not alive. *)
let reachable succs v =
  let seen = Hashtbl.create 16 in
  let rec go u =
    if not (Hashtbl.mem seen u) then begin
      Hashtbl.add seen u ();
      List.iter go succs.(u)
    end
  in
  go v;
  Hashtbl.fold (fun u () acc -> u :: acc) seen []

let oracle_alive ~final succs v = List.exists final (reachable succs v)

let oracle_dead ~final ~closed succs v =
  List.for_all
    (fun u -> closed.(u) && not (oracle_alive ~final succs u))
    (reachable succs v)

(* Random update sequences: add_vertex/close with random targets, then
   compare is_alive / is_dead on all vertices with the oracle. *)
let test_differential () =
  let rand = Random.State.make [| 2026 |] in
  for _round = 1 to 50 do
    let g = G.create () in
    let n = 3 + Random.State.int rand 12 in
    let final v = v mod 5 = 0 in
    let succs = Array.make n [] and closed = Array.make n false in
    (* add all vertices *)
    for v = 0 to n - 1 do
      ignore (G.add_vertex g v ~final:(final v))
    done;
    (* close a random subset with random targets *)
    for v = 0 to n - 1 do
      if Random.State.bool rand then begin
        let deg = Random.State.int rand 4 in
        let targets =
          List.init deg (fun _ ->
              let t = Random.State.int rand n in
              (t, final t))
        in
        G.close g v ~final:(final v) ~targets;
        succs.(v) <- List.sort_uniq Int.compare (List.map fst targets);
        closed.(v) <- true
      end
    done;
    (* the graph agrees with the oracle on every vertex *)
    for v = 0 to n - 1 do
      check "closed agree" closed.(v) (G.is_closed g v);
      check "alive agree" (oracle_alive ~final succs v) (G.is_alive g v);
      check "dead agree" (oracle_dead ~final ~closed succs v) (G.is_dead g v);
      (* sanity: alive and dead are mutually exclusive *)
      check "not both" false (G.is_alive g v && G.is_dead g v)
    done;
    check "edge counts agree" true
      (G.num_edges g = Array.fold_left (fun acc l -> acc + List.length l) 0 succs);
    check "closed counts agree" true
      (G.num_closed g = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 closed)
  done

(* dead-end semantics: a closed cycle with no finals is dead; adding a
   final escape revives nothing retroactively but keeps others alive *)
let test_graph_dead_cycle () =
  let g = G.create () in
  (* cycle 0 -> 1 -> 0, both closed, no finals: dead *)
  G.close g 0 ~final:false ~targets:[ (1, false) ];
  G.close g 1 ~final:false ~targets:[ (0, false) ];
  check "cycle is dead" true (G.is_dead g 0);
  check "cycle is dead (other member)" true (G.is_dead g 1);
  (* a separate vertex leading into the dead cycle is dead once closed *)
  G.close g 2 ~final:false ~targets:[ (0, false) ];
  check "feeder is dead" true (G.is_dead g 2);
  (* a vertex with a final target is alive, never dead *)
  G.close g 3 ~final:false ~targets:[ (0, false); (4, true) ];
  check "escape is alive" true (G.is_alive g 3);
  check "escape is not dead" false (G.is_dead g 3)

let test_graph_alive_propagation () =
  let g = G.create () in
  G.close g 0 ~final:false ~targets:[ (1, false) ];
  G.close g 1 ~final:false ~targets:[ (2, false) ];
  check "not alive yet" false (G.is_alive g 0);
  (* closing 2 with a final target propagates aliveness back *)
  G.close g 2 ~final:false ~targets:[ (3, true) ];
  check "2 alive" true (G.is_alive g 2);
  check "1 alive" true (G.is_alive g 1);
  check "0 alive" true (G.is_alive g 0)

let suite =
  ( "graph",
    [ Alcotest.test_case "graph implementations agree" `Quick test_differential
    ; Alcotest.test_case "scc graph: dead cycle" `Quick test_graph_dead_cycle
    ; Alcotest.test_case "scc graph: alive propagation" `Quick test_graph_alive_propagation
    ] )
