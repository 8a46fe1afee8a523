(* On-disk layout (format GQLSTOR2):

   Page 0 is the superblock, managed directly through {!Pager} and
   never through the buffer pool, so its write ordering is explicit:

     bytes 0..7    magic "GQLSTOR2"
     bytes 8..39   header slot 0:  n:int64 | tail:int64 | seq:int64 | crc:int32
     bytes 40..71  header slot 1:  same layout

   A commit (flush) first writes back and fsyncs every dirty data page,
   then writes the superblock with seq+1 into slot (seq+1) mod 2 and
   fsyncs again. Opening picks the valid slot (CRC and seq >= 1) with
   the highest seq — a write torn anywhere inside the superblock leaves
   the other slot describing the previous commit, so committed graphs
   are never lost to a crash.

   Records start at byte 4096: [len:4 LE][crc32(payload):4 LE][payload].
   Recovery scans at most the committed record count, stops at the
   first record that fails its bounds or CRC, truncates the directory
   there and commits the repaired header.

   Three record kinds share the log, classified by the payload's first
   byte: graph records begin with {!Codec.format_version} (a small
   integer), transaction records with [txn_kind] (0xFB),
   view-definition records with [view_kind] (0xFC), all far outside
   any codec version. Txn and view records ride the same
   CRC/commit/recovery machinery; only graph records count toward [n]
   and the id directory. Kind 0xFA marked the auxiliary learned-stats
   records that older stores carry: opening skips them, and nothing
   writes them any more.

   View records are keyed by name: ['c' name blob] creates or replaces
   a view (newest committed record wins) and resets its delta chain,
   ['a' name blob] appends a delta to the chain of a live name, and
   ['d' name] drops the view and its chain. Both blobs are opaque to
   the store — the exec layer encodes the definition text, flags, epoch
   and materialized result graphs in a full blob, and one refresh's
   edit script in a delta; a reader applies the chain, in log order,
   over the newest full blob. An ['a'] record for an unknown name is
   malformed and truncates the log like a CRC failure.

   Transaction records are the write path's log: instead of rewriting a
   mutated graph's (possibly large) base record, a write appends the
   mutation ops ['u' gid ops] or a deletion tombstone ['d' gid]. Opening
   replays them in log order into a per-graph pending-ops overlay;
   [get_graph] lazily materializes base-plus-overlay (memoized). Graph
   ids are stable across deletions — a dead gid is simply no longer
   live. Group commit falls out of the superblock design: any number of
   staged records become durable atomically at the next flush's slot
   swap, and a torn tail is salvaged record-by-record on reopen. *)

open Gql_graph

let magic = "GQLSTOR2"
let retired_aux_kind = '\250'
let txn_kind = '\251'
let view_kind = '\252'

type recovery = {
  salvaged : int;
  dropped_records : int;
  dropped_bytes : int;
  salvaged_txns : int;
}

(* In-memory image of the last committed state: [rollback]/[abort]
   discard staged records by restoring it. Staged pages beyond [c_tail]
   may already be on disk (pool eviction) but are unreachable — record
   validity is bounded by the committed tail. *)
type snapshot = {
  c_n : int;
  c_tail : int;
  c_txns : int;
  c_pending : (int * Mutate.op list list) list;
  c_dead : int list;
  c_views : (string * string) list;
  c_chains : (string * string list) list;
}

type t = {
  pool : Buffer_pool.t;
  header : bytes;  (* in-memory page-0 image; the only writer of page 0 *)
  mutable offsets : (int * int) array;  (* (record byte offset, payload length) *)
  mutable n : int;
  mutable tail : int;  (* byte offset of the end of the log *)
  mutable seq : int;  (* last committed superblock sequence number *)
  mutable txns : int;  (* txn records replayed + appended (tombstones included) *)
  pending : (int, Mutate.op list list) Hashtbl.t;
      (* gid -> logged op batches, newest first: staging is O(1) *)
  dead : (int, unit) Hashtbl.t;  (* tombstoned gids *)
  views : (string, string) Hashtbl.t;  (* view name -> newest full blob *)
  chains : (string, string list) Hashtbl.t;
      (* view name -> deltas after its full blob, newest first *)
  materialized : (int, Graph.t) Hashtbl.t;
      (* memo of base + pending overlay, for every gid decoded so far *)
  mutable committed : snapshot;
  mutable recovery : recovery option;
  mutable metrics : Gql_obs.Metrics.t option;
  mutable closed : bool;
}

let push_offset t entry =
  if t.n = Array.length t.offsets then begin
    let bigger = Array.make (max 16 (2 * t.n)) (0, 0) in
    Array.blit t.offsets 0 bigger 0 t.n;
    t.offsets <- bigger
  end;
  t.offsets.(t.n) <- entry

(* Log one more op batch for [gid]. *)
let stage t gid ops =
  Hashtbl.replace t.pending gid
    (ops :: Option.value ~default:[] (Hashtbl.find_opt t.pending gid))

let header_size = Pager.page_size
let record_header = 8
let check t = if t.closed then invalid_arg "Store: already closed"

(* --- superblock --- *)

let slot_off idx = 8 + (32 * idx)

let set_slot header ~n ~tail ~seq =
  let body = Bytes.create 24 in
  Bytes.set_int64_le body 0 (Int64.of_int n);
  Bytes.set_int64_le body 8 (Int64.of_int tail);
  Bytes.set_int64_le body 16 (Int64.of_int seq);
  let crc = Codec.crc32 (Bytes.unsafe_to_string body) in
  let off = slot_off (seq land 1) in
  Bytes.blit body 0 header off 24;
  Bytes.set_int32_le header (off + 24) (Int32.of_int crc)

let get_slot header idx =
  let off = slot_off idx in
  let body = Bytes.sub_string header off 24 in
  let stored = Int32.to_int (Bytes.get_int32_le header (off + 24)) land 0xFFFFFFFF in
  if Codec.crc32 body <> stored then None
  else
    let n = Int64.to_int (Bytes.get_int64_le header off) in
    let tail = Int64.to_int (Bytes.get_int64_le header (off + 8)) in
    let seq = Int64.to_int (Bytes.get_int64_le header (off + 16)) in
    if seq < 1 || n < 0 || tail < header_size then None else Some (n, tail, seq)

let snapshot t =
  {
    c_n = t.n;
    c_tail = t.tail;
    c_txns = t.txns;
    c_pending = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pending [];
    c_dead = Hashtbl.fold (fun k () acc -> k :: acc) t.dead [];
    c_views = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.views [];
    c_chains = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.chains [];
  }

(* Data pages are committed before the superblock names them: a crash
   between the two fsyncs leaves the old superblock pointing at old,
   fully-written data. The snapshot is taken only after the sync
   returns: a crash anywhere inside commit leaves [committed]
   describing the previous durable state. *)
let commit t =
  Buffer_pool.flush t.pool;
  t.seq <- t.seq + 1;
  set_slot t.header ~n:t.n ~tail:t.tail ~seq:t.seq;
  let pager = Buffer_pool.pager t.pool in
  Pager.write pager 0 t.header;
  Pager.sync pager;
  t.committed <- snapshot t

(* --- byte-level access through the pool --- *)

let read_bytes t ~off ~len =
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let pos = off + !copied in
    let page_id = pos / Pager.page_size in
    let in_page = pos mod Pager.page_size in
    let chunk = min (len - !copied) (Pager.page_size - in_page) in
    let page = Buffer_pool.get t.pool page_id in
    Bytes.blit page in_page out !copied chunk;
    copied := !copied + chunk
  done;
  Bytes.unsafe_to_string out

let write_bytes t ~off s =
  let len = String.length s in
  let pager = Buffer_pool.pager t.pool in
  (* make sure every touched page exists *)
  let last_page = (off + len - 1) / Pager.page_size in
  while Pager.n_pages pager <= last_page do
    ignore (Buffer_pool.alloc t.pool)
  done;
  let copied = ref 0 in
  while !copied < len do
    let pos = off + !copied in
    let page_id = pos / Pager.page_size in
    let in_page = pos mod Pager.page_size in
    let chunk = min (len - !copied) (Pager.page_size - in_page) in
    let c = !copied in
    Buffer_pool.with_page t.pool page_id (fun page ->
        Bytes.blit_string s c page in_page chunk);
    copied := c + chunk
  done

(* records: [len:4 LE][crc:4 LE][payload] *)

let write_record t off payload =
  let hdr = Bytes.create record_header in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le hdr 4 (Int32.of_int (Codec.crc32 payload));
  write_bytes t ~off (Bytes.unsafe_to_string hdr);
  write_bytes t ~off:(off + record_header) payload;
  off + record_header + String.length payload

(* Validating read bounded by [limit]: returns the payload and the next
   offset, or [None] for anything that cannot be a committed record —
   out of bounds, negative length, unreadable pages, CRC mismatch. *)
let read_record_opt t ~limit off =
  if off + record_header > limit then None
  else
    match read_bytes t ~off ~len:record_header with
    | exception _ -> None
    | hdr ->
      let len = Int32.to_int (String.get_int32_le hdr 0) in
      let stored = Int32.to_int (String.get_int32_le hdr 4) land 0xFFFFFFFF in
      if len < 0 || off + record_header + len > limit then None
      else (
        match read_bytes t ~off:(off + record_header) ~len with
        | exception _ -> None
        | payload ->
          if Codec.crc32 payload <> stored then None
          else Some (payload, off + record_header + len))

(* --- lifecycle --- *)

let empty_snapshot =
  {
    c_n = 0;
    c_tail = header_size;
    c_txns = 0;
    c_pending = [];
    c_dead = [];
    c_views = [];
    c_chains = [];
  }

let create ?pool_capacity path =
  let pager = Pager.create path in
  let pool = Buffer_pool.create ?capacity:pool_capacity pager in
  ignore (Pager.alloc pager) (* superblock page, outside the pool *);
  let header = Bytes.make Pager.page_size '\000' in
  Bytes.blit_string magic 0 header 0 8;
  let t =
    {
      pool;
      header;
      offsets = [||];
      n = 0;
      tail = header_size;
      seq = 0;
      txns = 0;
      pending = Hashtbl.create 16;
      dead = Hashtbl.create 16;
      views = Hashtbl.create 4;
      chains = Hashtbl.create 4;
      materialized = Hashtbl.create 16;
      committed = empty_snapshot;
      recovery = None;
      metrics = None;
      closed = false;
    }
  in
  commit t;
  t

let corrupt fmt = Format.kasprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* Replay one CRC-valid transaction record into the overlay. Returns
   [false] on anything malformed — unknown sub-kind, trailing bytes, an
   out-of-range or already-dead gid — which recovery treats exactly
   like a CRC failure: the log is truncated there. A structurally valid
   record always applies, because truncation only ever removes a
   suffix: the ops were validated against this same prefix state when
   they were first appended. *)
let replay_txn t payload =
  let len = String.length payload in
  try
    if len < 2 then false
    else
      match payload.[1] with
      | 'u' ->
        let gid, o = Codec.read_uvarint payload 2 in
        let ops, o = Codec.read_ops payload o in
        if o <> len || gid < 0 || gid >= t.n || Hashtbl.mem t.dead gid then
          false
        else begin
          stage t gid ops;
          t.txns <- t.txns + 1;
          true
        end
      | 'd' ->
        let gid, o = Codec.read_uvarint payload 2 in
        if o <> len || gid < 0 || gid >= t.n || Hashtbl.mem t.dead gid then
          false
        else begin
          Hashtbl.replace t.dead gid ();
          Hashtbl.remove t.pending gid;
          t.txns <- t.txns + 1;
          true
        end
      | _ -> false
  with Codec.Corrupt _ -> false

let push_delta t name blob =
  Hashtbl.replace t.chains name
    (blob :: Option.value ~default:[] (Hashtbl.find_opt t.chains name))

(* Replay one CRC-valid view record: ['c' name blob] (re)defines the
   view and resets its chain, ['a' name blob] extends the chain, ['d'
   name] drops both. Later records shadow earlier ones, so replay in
   log order leaves the newest committed definition per name and the
   deltas logged after it. Malformed structure — an ['a'] for a name
   with no definition included — is treated like a CRC failure by the
   caller. *)
let replay_view t payload =
  let len = String.length payload in
  try
    if len < 2 then false
    else
      match payload.[1] with
      | 'c' ->
        let name, o = Codec.read_string payload 2 in
        if name = "" then false
        else begin
          Hashtbl.replace t.views name (String.sub payload o (len - o));
          Hashtbl.remove t.chains name;
          true
        end
      | 'a' ->
        let name, o = Codec.read_string payload 2 in
        if not (Hashtbl.mem t.views name) then false
        else begin
          push_delta t name (String.sub payload o (len - o));
          true
        end
      | 'd' ->
        let name, o = Codec.read_string payload 2 in
        if o <> len || name = "" then false
        else begin
          Hashtbl.remove t.views name;
          Hashtbl.remove t.chains name;
          true
        end
      | _ -> false
  with Codec.Corrupt _ -> false

let open_existing ?pool_capacity path =
  (* a non-page-aligned file is the signature of an append that died
     mid-page: the torn tail is invisible to the pager and the scan
     below decides what is still intact *)
  let pager = Pager.open_existing ~allow_torn_tail:true path in
  let fail_with f = Pager.close pager; f () in
  if Pager.n_pages pager = 0 then
    fail_with (fun () -> corrupt "%s: empty or headerless store file" path);
  let header = Pager.read pager 0 in
  if Bytes.sub_string header 0 8 <> magic then
    fail_with (fun () -> corrupt "%s: bad magic (not a GQLSTOR2 store)" path);
  let n, tail, seq =
    match (get_slot header 0, get_slot header 1) with
    | Some (n, t, s), Some (_, _, s') when s >= s' -> (n, t, s)
    | _, Some (n, t, s) | Some (n, t, s), None -> (n, t, s)
    | None, None ->
      fail_with (fun () -> corrupt "%s: both header slots corrupt" path)
  in
  let pool = Buffer_pool.create ?capacity:pool_capacity pager in
  let t =
    {
      pool;
      header;
      offsets = Array.make (max 16 n) (0, 0);
      n = 0;
      tail;
      seq;
      txns = 0;
      pending = Hashtbl.create 16;
      dead = Hashtbl.create 16;
      views = Hashtbl.create 4;
      chains = Hashtbl.create 4;
      materialized = Hashtbl.create 16;
      committed = empty_snapshot;
      recovery = None;
      metrics = None;
      closed = false;
    }
  in
  (* rebuild the directory with a sequential scan of the log, bounded
     by the committed record count and tail — CRC-valid garbage beyond
     them is never salvaged. Txn records replay into the overlay in log
     order; a malformed one truncates the log exactly like a CRC
     failure would. *)
  let off = ref header_size in
  let valid = ref 0 in
  (* without this skip an old store's aux record would count toward [n]:
     the scan would stop one graph early and truncate the committed tail *)
  let is_aux payload =
    String.length payload > 0 && payload.[0] = retired_aux_kind
  in
  let is_txn payload = String.length payload > 0 && payload.[0] = txn_kind in
  let is_view payload = String.length payload > 0 && payload.[0] = view_kind in
  (try
     while !valid < n do
       match read_record_opt t ~limit:tail !off with
       | None -> raise Exit
       | Some (payload, next) ->
         (if is_txn payload then begin
            if not (replay_txn t payload) then raise Exit
          end
          else if is_view payload then begin
            if not (replay_view t payload) then raise Exit
          end
          else if not (is_aux payload) then begin
            push_offset t (!off, String.length payload);
            t.n <- t.n + 1;
            incr valid
          end);
         off := next
     done;
     (* aux/txn/view records after the last committed graph: walk
        them up to tail; anything unreadable there is a torn tail and
        falls to the truncation below, keeping the previous state *)
     let walking = ref true in
     while !walking && !off < tail do
       match read_record_opt t ~limit:tail !off with
       | Some (payload, next) when is_aux payload -> off := next
       | Some (payload, next) when is_txn payload ->
         if replay_txn t payload then off := next else walking := false
       | Some (payload, next) when is_view payload ->
         if replay_view t payload then off := next else walking := false
       | _ -> walking := false
     done
   with Exit -> ());
  if !valid < n || !off <> tail then begin
    (* torn tail: keep the valid prefix, truncate the directory there,
       and commit the repaired header so the next open is clean *)
    t.recovery <-
      Some
        {
          salvaged = !valid;
          dropped_records = n - !valid;
          dropped_bytes = tail - !off;
          salvaged_txns = t.txns;
        };
    t.tail <- !off;
    commit t
  end
  else t.committed <- snapshot t;
  t

let flush t =
  check t;
  commit t

let close t =
  if not t.closed then begin
    flush t;
    Pager.close (Buffer_pool.pager t.pool);
    t.closed <- true
  end

(* Discard everything staged since the last commit: graph/txn/view
   records (the log tail), tombstones and pending overlays. Pages
   beyond the restored tail may hold the discarded bytes, but they are
   unreachable — record validity is bounded by the superblock tail, and
   the next append overwrites them. *)
let discard_staged t =
  let s = t.committed in
  t.n <- s.c_n;
  t.tail <- s.c_tail;
  t.txns <- s.c_txns;
  Hashtbl.reset t.pending;
  List.iter (fun (k, v) -> Hashtbl.replace t.pending k v) s.c_pending;
  Hashtbl.reset t.dead;
  List.iter (fun k -> Hashtbl.replace t.dead k ()) s.c_dead;
  Hashtbl.reset t.views;
  List.iter (fun (k, v) -> Hashtbl.replace t.views k v) s.c_views;
  Hashtbl.reset t.chains;
  List.iter (fun (k, v) -> Hashtbl.replace t.chains k v) s.c_chains;
  (* memoized graphs may reflect discarded ops *)
  Hashtbl.reset t.materialized

let rollback t =
  check t;
  discard_staged t

let abort t =
  if not t.closed then begin
    discard_staged t;
    Pager.close (Buffer_pool.pager t.pool);
    t.closed <- true
  end

(* --- operations --- *)

let add_graph t g =
  check t;
  let payload = Codec.graph_to_string g in
  let id = t.n in
  let off = t.tail in
  t.tail <- write_record t off payload;
  push_offset t (off, String.length payload);
  t.n <- id + 1;
  id

let n_graphs t = t.n
let is_live t i = i >= 0 && i < t.n && not (Hashtbl.mem t.dead i)
let live_count t = t.n - Hashtbl.length t.dead

let offset_of t i =
  if i < 0 || i >= t.n then invalid_arg "Store.get_graph: id out of range";
  t.offsets.(i)

let base_graph t i =
  let off, len = offset_of t i in
  let hdr = read_bytes t ~off ~len:record_header in
  let stored = Int32.to_int (String.get_int32_le hdr 4) land 0xFFFFFFFF in
  let payload = read_bytes t ~off:(off + record_header) ~len in
  if Codec.crc32 payload <> stored then
    corrupt "record %d: CRC mismatch (stored %08x, computed %08x)" i stored
      (Codec.crc32 payload);
  Codec.graph_of_string payload

let get_graph t i =
  check t;
  if i >= 0 && i < t.n && Hashtbl.mem t.dead i then
    invalid_arg (Printf.sprintf "Store.get_graph: graph %d is deleted" i);
  match Hashtbl.find_opt t.materialized i with
  | Some g -> g
  | None ->
    let base = base_graph t i in
    let batches = Option.value ~default:[] (Hashtbl.find_opt t.pending i) in
    let g =
      try
        List.fold_left
          (List.fold_left (fun g op -> fst (Mutate.apply g op)))
          base (List.rev batches)
      with Invalid_argument msg ->
        corrupt "record %d: transaction replay failed: %s" i msg
    in
    Hashtbl.replace t.materialized i g;
    g

let iter t ~f =
  check t;
  for i = 0 to t.n - 1 do
    if not (Hashtbl.mem t.dead i) then f i (get_graph t i)
  done

let to_list t =
  check t;
  List.filter_map
    (fun i -> if Hashtbl.mem t.dead i then None else Some (get_graph t i))
    (List.init t.n Fun.id)

(* --- the write path --- *)

let count_txn t =
  t.txns <- t.txns + 1;
  match t.metrics with
  | Some m -> Gql_obs.Metrics.incr m Storage_txn_appended
  | None -> ()

let live_graph ~what t gid =
  check t;
  if not (is_live t gid) then
    invalid_arg (Printf.sprintf "Store.%s: graph %d not live" what gid);
  get_graph t gid

(* The one logging path: [post] is [gid]'s graph after [ops], and
   becomes its memoized state, so a write is never applied twice. *)
let log_txn t ~gid ops post =
  if ops <> [] then begin
    let buf = Buffer.create 64 in
    Buffer.add_char buf txn_kind;
    Buffer.add_char buf 'u';
    Codec.write_uvarint buf gid;
    Codec.write_ops buf ops;
    t.tail <- write_record t t.tail (Buffer.contents buf);
    stage t gid ops;
    Hashtbl.replace t.materialized gid post;
    count_txn t
  end

let append_txn ?(r = 1) t ~gid ops =
  let g = live_graph ~what:"append_txn" t gid in
  let g', delta = Mutate.apply_all ~r g ops in
  log_txn t ~gid ops g';
  (g', delta)

(* Every id an op names is checked against the sizes of [g] counted
   forward through the batch, in O(ops). A node deletion also drops
   its incident edges, which only the graph knows: from there on the
   edge count is an upper bound. *)
let check_ops ~gid g ops post =
  let bad fmt =
    Printf.ksprintf
      (fun s ->
        invalid_arg (Printf.sprintf "Store.adopt_txn: graph %d: %s" gid s))
      fmt
  in
  let node n v = if v < 0 || v >= n then bad "node %d out of range" v in
  let edge m e = if e < 0 || e >= m then bad "edge %d out of range" e in
  let n, m, exact =
    List.fold_left
      (fun (n, m, exact) -> function
        | Mutate.Add_node _ -> (n + 1, m, exact)
        | Mutate.Add_edge { src; dst; _ } ->
          node n src;
          node n dst;
          (n, m + 1, exact)
        | Mutate.Set_node { v; _ } ->
          node n v;
          (n, m, exact)
        | Mutate.Set_edge { e; _ } ->
          edge m e;
          (n, m, exact)
        | Mutate.Del_node v ->
          node n v;
          (n - 1, m, false)
        | Mutate.Del_edge e ->
          edge m e;
          (n, m - 1, exact))
      (Graph.n_nodes g, Graph.n_edges g, true)
      ops
  in
  let pn = Graph.n_nodes post and pm = Graph.n_edges post in
  if pn <> n || pm > m || (exact && pm <> m) then
    bad "the post-state has %d nodes and %d edges, the ops leave %d and %d" pn
      pm n m

let adopt_txn t ~gid ~post ops =
  check_ops ~gid (live_graph ~what:"adopt_txn" t gid) ops post;
  log_txn t ~gid ops post

let remove_graph t gid =
  check t;
  if not (is_live t gid) then
    invalid_arg (Printf.sprintf "Store.remove_graph: graph %d not live" gid);
  let buf = Buffer.create 8 in
  Buffer.add_char buf txn_kind;
  Buffer.add_char buf 'd';
  Codec.write_uvarint buf gid;
  t.tail <- write_record t t.tail (Buffer.contents buf);
  Hashtbl.replace t.dead gid ();
  Hashtbl.remove t.pending gid;
  Hashtbl.remove t.materialized gid;
  count_txn t

let txn_count t = t.txns
let durable_txn_count t = t.committed.c_txns
let pending_ops t gid =
  match Hashtbl.find_opt t.pending gid with
  | None -> []
  | Some batches -> List.concat (List.rev batches)

let write_view_record t sub name blob =
  let buf = Buffer.create (String.length blob + String.length name + 8) in
  Buffer.add_char buf view_kind;
  Buffer.add_char buf sub;
  Codec.write_string buf name;
  Buffer.add_string buf blob;
  t.tail <- write_record t t.tail (Buffer.contents buf)

let set_view t ~name blob =
  check t;
  if name = "" then invalid_arg "Store.set_view: empty view name";
  write_view_record t 'c' name blob;
  Hashtbl.replace t.views name blob;
  Hashtbl.remove t.chains name

let add_view_delta t ~name blob =
  check t;
  if not (Hashtbl.mem t.views name) then
    invalid_arg (Printf.sprintf "Store.add_view_delta: no view %S" name);
  write_view_record t 'a' name blob;
  push_delta t name blob

let drop_view t name =
  check t;
  if Hashtbl.mem t.views name then begin
    write_view_record t 'd' name "";
    Hashtbl.remove t.views name;
    Hashtbl.remove t.chains name;
    true
  end
  else false

let view_blob t name =
  check t;
  Hashtbl.find_opt t.views name

let view_deltas t name =
  check t;
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.chains name))

let views t =
  check t;
  Hashtbl.fold (fun name blob acc -> (name, blob) :: acc) t.views []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Full-file integrity pass over the committed log: re-read every
   record (graph, aux, txn, view) and recheck its CRC against the
   stored header. Returns the number of valid records; raises
   {!Codec.Corrupt} at the first unreadable one. Reads go through the
   buffer pool, so cold pages come back from disk. *)
let verify t =
  check t;
  let limit = t.committed.c_tail in
  let off = ref header_size in
  let records = ref 0 in
  while !off < limit do
    match read_record_opt t ~limit !off with
    | Some (_, next) ->
      incr records;
      off := next
    | None -> corrupt "verify: unreadable record at byte %d" !off
  done;
  !records

let pool_stats t = Buffer_pool.stats t.pool
let recovery t = t.recovery
let pager t = Buffer_pool.pager t.pool

let set_metrics t m =
  t.metrics <- Some m;
  Buffer_pool.set_metrics t.pool m
