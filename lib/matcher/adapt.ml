open Gql_graph

type config = { threshold : float; min_samples : int; max_replans : int }

let default = { threshold = 4.0; min_samples = 16; max_replans = 2 }

(* Every pattern edge is closed at exactly one order position: the one
   where its later endpoint joins the partial order. *)
let closed_at p order =
  let k = Array.length order in
  let pos = Array.make (Flat_pattern.size p) (-1) in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  let by_pos = Array.make k [] in
  Graph.iter_edges p.Flat_pattern.structure ~f:(fun e { Graph.src; dst; _ } ->
      let i = max pos.(src) pos.(dst) in
      by_pos.(i) <- e :: by_pos.(i));
  by_pos

let gamma_floor = 1e-6
let clamp_gamma g = Float.min 1.0 (Float.max gamma_floor g)

(* Observed fan-out at position i — descents at i per partial mapping
   alive at i-1 — against the model's prediction for the same ratio.
   Fan-outs are per-parent, so slicing the root set does not skew them. *)
let diverged cfg estimates (pd : int array) =
  let k = Array.length pd in
  let rec go i =
    if i >= k then false
    else if pd.(i - 1) >= cfg.min_samples then begin
      let obs = Float.max 1e-9 (float_of_int pd.(i) /. float_of_int pd.(i - 1)) in
      let est = Float.max 1e-9 (estimates.(i) /. Float.max 1e-9 estimates.(i - 1)) in
      if obs /. est >= cfg.threshold || est /. obs >= cfg.threshold then true
      else go (i + 1)
    end
    else go (i + 1)
  in
  if k <= 1 then false else go 1

(* Per-edge γ overrides from the observed fan-outs: the fan-out at
   position i is |Φ(u)| scaled by the product of the factors of the m
   edges closed there, so each closed edge is attributed the geometric
   share (fanout / |Φ(u)|)^(1/m). Positions without enough samples
   leave their edges at -1 (inherit from the base model). *)
let observed_overrides cfg p ~sizes order (pd : int array) =
  let k = Array.length order in
  let overrides = Array.make (Graph.n_edges p.Flat_pattern.structure) (-1.0) in
  let by_pos = closed_at p order in
  for i = 1 to k - 1 do
    if pd.(i - 1) >= cfg.min_samples then begin
      match by_pos.(i) with
      | [] -> ()
      | es ->
        let f = float_of_int pd.(i) /. float_of_int pd.(i - 1) in
        let su = Float.max 1.0 (float_of_int sizes.(order.(i))) in
        let m = List.length es in
        let per = clamp_gamma (clamp_gamma (f /. su) ** (1.0 /. float_of_int m)) in
        List.iter (fun e -> overrides.(e) <- per) es
    end
  done;
  overrides

(* The re-plan step {!Ws} takes at a task boundary. *)
let replan cfg ~model p ~sizes ~order ~estimates (pd : int array) =
  if not (diverged cfg estimates pd) then None
  else begin
    let overrides = observed_overrides cfg p ~sizes order pd in
    let model' = Cost.Edge_gamma { base = model; overrides } in
    let candidate =
      Order.exhaustive_from ~model:model' p ~sizes ~prefix:[| order.(0) |]
    in
    let order' =
      if
        Cost.order_cost model' p ~sizes candidate
        < Cost.order_cost model' p ~sizes order
      then candidate
      else order
    in
    Some (order', Cost.position_estimates model' p ~sizes order')
  end
