type t = {
  center : int;
  graph : Graph.t;
  original : int array;
}

let nodes_within g v ~r =
  let dist = Hashtbl.create 32 in
  Hashtbl.add dist v 0;
  let q = Queue.create () in
  Queue.add v q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let d = Hashtbl.find dist u in
    if d < r then begin
      Graph.iter_incident g u ~f:(fun w _ ->
          if not (Hashtbl.mem dist w) then begin
            Hashtbl.add dist w (d + 1);
            Queue.add w q
          end)
    end
  done;
  Hashtbl.fold (fun w _ acc -> w :: acc) dist [] |> List.sort compare

let make g v ~r =
  let members = nodes_within g v ~r in
  let sub, original = Graph.induced_subgraph g members in
  let center =
    let rec find i = if original.(i) = v then i else find (i + 1) in
    find 0
  in
  { center; graph = sub; original }
