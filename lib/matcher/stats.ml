open Gql_graph

(* Learned planner statistics: exponentially-decayed averages of
   - per-(label, log2 pattern-degree bucket) candidate selectivity
     |Φ(u)| / |V(g)| observed after retrieval + refinement, and
   - per-(label, label) edge reduction factors γ observed from the
     search's per-position fan-out,
   keyed textually: an unconstrained pattern node is keyed "*", a
   labeled one "L<label>". *)

type ewma = { mutable value : float; mutable weight : float }

type t = {
  decay : float;  (* weight of a new observation, 0 < decay <= 1 *)
  epoch_every : int;  (* runs folded in per epoch bump *)
  sel : (string * int, ewma) Hashtbl.t;
  gam : (string * string, ewma) Hashtbl.t;
  mutable observations : int;
  mutable epoch : int;
}

let create ?(decay = 0.25) ?(epoch_every = 64) () =
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Stats.create: decay outside (0, 1]";
  if epoch_every <= 0 then invalid_arg "Stats.create: epoch_every <= 0";
  {
    decay;
    epoch_every;
    sel = Hashtbl.create 64;
    gam = Hashtbl.create 64;
    observations = 0;
    epoch = 0;
  }

let decay t = t.decay
let epoch t = t.epoch
let observations t = t.observations

let snapshot t =
  let copy tbl =
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun k { value; weight } -> Hashtbl.add out k { value; weight })
      tbl;
    out
  in
  {
    decay = t.decay;
    epoch_every = t.epoch_every;
    sel = copy t.sel;
    gam = copy t.gam;
    observations = t.observations;
    epoch = t.epoch;
  }

let label_key = function None -> "*" | Some l -> "L" ^ l

(* log2 buckets, same convention as the Metrics histograms: bucket 0
   holds 0, bucket b >= 1 holds [2^(b-1), 2^b) *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min 63 !b
  end

let fold tbl ~decay key x =
  match Hashtbl.find_opt tbl key with
  | Some e ->
    e.value <- ((1.0 -. decay) *. e.value) +. (decay *. x);
    e.weight <- e.weight +. 1.0
  | None -> Hashtbl.add tbl key { value = x; weight = 1.0 }

let observe_selectivity t ~label ~degree x =
  let x = Float.min 1.0 (Float.max 0.0 x) in
  fold t.sel ~decay:t.decay (label_key label, bucket_of degree) x

let selectivity t ~label ~degree =
  Option.map
    (fun e -> e.value)
    (Hashtbl.find_opt t.sel (label_key label, bucket_of degree))

(* γ keys are unordered: pattern edges are costed symmetrically (the
   same convention Cost.edge_probability uses for undirected data) *)
let gam_key la lb =
  let a = label_key la and b = label_key lb in
  if a <= b then (a, b) else (b, a)

let gamma_floor = 1e-6

let observe_gamma t la lb x =
  let x = Float.min 1.0 (Float.max gamma_floor x) in
  fold t.gam ~decay:t.decay (gam_key la lb) x

let gamma t la lb =
  Option.map (fun e -> e.value) (Hashtbl.find_opt t.gam (gam_key la lb))

let pattern_degree p u =
  Array.length (Graph.undirected_neighbor_ids p.Flat_pattern.structure u)

let estimate_sizes t p ~n_nodes =
  let n = float_of_int (max 1 n_nodes) in
  Array.init (Flat_pattern.size p) (fun u ->
      match
        selectivity t
          ~label:(Flat_pattern.required_label p u)
          ~degree:(pattern_degree p u)
      with
      | Some s -> max 1 (int_of_float (Float.round (s *. n)))
      | None -> n_nodes)

let observe_run t ~p ~n_nodes ~sizes ~order ~fanouts =
  let k = Flat_pattern.size p in
  let n = float_of_int (max 1 n_nodes) in
  for u = 0 to k - 1 do
    observe_selectivity t
      ~label:(Flat_pattern.required_label p u)
      ~degree:(pattern_degree p u)
      (float_of_int sizes.(u) /. n)
  done;
  (* Attribute the observed fan-out at position i to the pattern edges
     it closed: with m closed edges, each gets the m-th root of the
     observed reduction fanout / |Φ(u_i)| — the geometric split keeps
     the product equal to the observation. *)
  let g = p.Flat_pattern.structure in
  let pos = Array.make k (-1) in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  Array.iteri
    (fun i u ->
      if i >= 1 && i < Array.length fanouts && Float.is_finite fanouts.(i)
      then begin
        let closed = ref [] in
        Graph.iter_incident g u ~f:(fun u' _ ->
            if pos.(u') < i then closed := u' :: !closed);
        let m = List.length !closed in
        if m > 0 && sizes.(u) > 0 then begin
          let reduction =
            Float.max gamma_floor
              (Float.min 1.0 (fanouts.(i) /. float_of_int sizes.(u)))
          in
          let per_edge = reduction ** (1.0 /. float_of_int m) in
          let lu = Flat_pattern.required_label p u in
          List.iter
            (fun u' ->
              observe_gamma t lu (Flat_pattern.required_label p u') per_edge)
            !closed
        end
      end)
    order;
  t.observations <- t.observations + 1;
  if t.observations mod t.epoch_every = 0 then t.epoch <- t.epoch + 1
