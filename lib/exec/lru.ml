(* Byte-budgeted LRU over a doubly-linked recency list + Hashtbl,
   polymorphic in the value; the creator says what an entry weighs.

   The list head is the most recently used entry, the tail the coldest.
   Every operation is O(1) except the eviction loop, which is O(evicted). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable bytes : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type stats = {
  entries : int;
  bytes : int;
  budget : int;
  hits : int;
  misses : int;
  evictions : int;
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  budget : int;
  weight : string -> 'a -> int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~budget_bytes ~weight =
  if budget_bytes <= 0 then invalid_arg "Lru.create: budget_bytes <= 0";
  {
    tbl = Hashtbl.create 256;
    budget = budget_bytes;
    weight;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Key bytes + one word per candidate + a constant for the node, the
   hashtable slot and the array header. *)
let entry_bytes key row = String.length key + (8 * Array.length row) + 64

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    t.hits <- t.hits + 1;
    touch t n;
    Some n.value
  | None ->
    t.misses <- t.misses + 1;
    None

let mem t key = Hashtbl.mem t.tbl key

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.bytes <- t.bytes - n.bytes

let evict_to_fit t =
  while t.bytes > t.budget do
    match t.tail with
    | Some cold ->
      drop t cold;
      t.evictions <- t.evictions + 1
    | None -> t.bytes <- 0 (* unreachable: no entries charge no bytes *)
  done

let add t key value =
  let cost = t.weight key value in
  if cost > t.budget then
    (* Would evict the whole cache and still not fit: refuse. *)
    t.evictions <- t.evictions + 1
  else begin
    (match Hashtbl.find_opt t.tbl key with
    | Some n ->
      t.bytes <- t.bytes - n.bytes + cost;
      n.value <- value;
      n.bytes <- cost;
      touch t n
    | None ->
      let n = { key; value; bytes = cost; prev = None; next = None } in
      Hashtbl.add t.tbl key n;
      push_front t n;
      t.bytes <- t.bytes + cost);
    evict_to_fit t
  end

let stats t =
  {
    entries = Hashtbl.length t.tbl;
    bytes = t.bytes;
    budget = t.budget;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }
