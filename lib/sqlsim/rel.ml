open Gql_graph

type row = Value.t array

module Vtree = Gql_index.Btree.Make (Value)

type table = {
  name : string;
  cols : string array;
  mutable rows : row array;
  mutable n : int;
  mutable indexes : int list Vtree.t array;  (* per column: value -> row ids (desc) *)
}

type db = (string, table) Hashtbl.t

let create_db () = Hashtbl.create 8

let create_table db name ~columns =
  if Hashtbl.mem db name then invalid_arg ("Rel.create_table: duplicate " ^ name);
  let cols = Array.of_list columns in
  Hashtbl.add db name
    {
      name;
      cols;
      rows = Array.make 16 [||];
      n = 0;
      indexes = Array.map (fun _ -> Vtree.empty ()) cols;
    }

let table db name =
  match Hashtbl.find_opt db name with
  | Some t -> t
  | None -> invalid_arg ("Rel.table: no such table " ^ name)

let columns t = Array.to_list t.cols

let column_index t col =
  let rec go i =
    if i >= Array.length t.cols then
      invalid_arg (Printf.sprintf "Rel: table %s has no column %s" t.name col)
    else if t.cols.(i) = col then i
    else go (i + 1)
  in
  go 0

let insert db name (r : row) =
  let t = table db name in
  if Array.length r <> Array.length t.cols then
    invalid_arg "Rel.insert: row arity mismatch";
  if t.n = Array.length t.rows then begin
    let bigger = Array.make (2 * t.n) [||] in
    Array.blit t.rows 0 bigger 0 t.n;
    t.rows <- bigger
  end;
  let id = t.n in
  t.rows.(id) <- r;
  t.n <- id + 1;
  Array.iteri
    (fun c idx ->
      t.indexes.(c) <-
        Vtree.update r.(c)
          (function None -> Some [ id ] | Some ids -> Some (id :: ids))
          idx)
    t.indexes

let cardinality t = t.n
let row t i = t.rows.(i)

let scan t = Seq.init t.n Fun.id

let index_lookup t ~column v =
  let c = column_index t column in
  match Vtree.find v t.indexes.(c) with
  | Some ids -> List.rev ids
  | None -> []

let index_distinct t ~column =
  let c = column_index t column in
  Vtree.cardinal t.indexes.(c)
