open Gql_graph

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* --- varints (LEB128, zigzag for signed) --- *)

let write_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let read_uvarint s off =
  let n = ref 0 and shift = ref 0 and off = ref off and continue = ref true in
  while !continue do
    if !off >= String.length s then corrupt "truncated varint";
    let byte = Char.code s.[!off] in
    incr off;
    n := !n lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  (!n, !off)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let write_varint buf n = write_uvarint buf (zigzag n)

let read_varint s off =
  let n, off = read_uvarint s off in
  (unzigzag n, off)

let write_string buf s =
  write_uvarint buf (String.length s);
  Buffer.add_string buf s

let read_string s off =
  let len, off = read_uvarint s off in
  if off + len > String.length s then corrupt "truncated string";
  (String.sub s off len, off + len)

(* --- values --- *)

let write_value buf = function
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Bool false -> Buffer.add_char buf '\001'
  | Value.Bool true -> Buffer.add_char buf '\002'
  | Value.Int i ->
    Buffer.add_char buf '\003';
    write_varint buf i
  | Value.Float f ->
    Buffer.add_char buf '\004';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf '\005';
    write_string buf s

let read_value s off =
  if off >= String.length s then corrupt "truncated value";
  let tag = s.[off] and off = off + 1 in
  match tag with
  | '\000' -> (Value.Null, off)
  | '\001' -> (Value.Bool false, off)
  | '\002' -> (Value.Bool true, off)
  | '\003' ->
    let i, off = read_varint s off in
    (Value.Int i, off)
  | '\004' ->
    if off + 8 > String.length s then corrupt "truncated float";
    (Value.Float (Int64.float_of_bits (String.get_int64_le s off)), off + 8)
  | '\005' ->
    let str, off = read_string s off in
    (Value.Str str, off)
  | c -> corrupt "bad value tag %C" c

(* --- tuples --- *)

let write_option buf write = function
  | None -> Buffer.add_char buf '\000'
  | Some x ->
    Buffer.add_char buf '\001';
    write buf x

let read_option s off read =
  if off >= String.length s then corrupt "truncated option";
  match s.[off] with
  | '\000' -> (None, off + 1)
  | '\001' ->
    let x, off = read s (off + 1) in
    (Some x, off)
  | c -> corrupt "bad option tag %C" c

let write_tuple buf t =
  write_option buf write_string (Tuple.tag t);
  let bindings = Tuple.bindings t in
  write_uvarint buf (List.length bindings);
  List.iter
    (fun (k, v) ->
      write_string buf k;
      write_value buf v)
    bindings

let read_tuple s off =
  let tag, off = read_option s off read_string in
  let n, off = read_uvarint s off in
  let off = ref off in
  let bindings =
    List.init n (fun _ ->
        let k, o = read_string s !off in
        let v, o = read_value s o in
        off := o;
        (k, v))
  in
  (Tuple.make ?tag bindings, !off)

(* --- graphs --- *)

let format_version = 1

let write_graph buf g =
  Buffer.add_char buf (Char.chr format_version);
  Buffer.add_char buf (if Graph.directed g then '\001' else '\000');
  write_option buf write_string (Graph.name g);
  write_tuple buf (Graph.tuple g);
  write_uvarint buf (Graph.n_nodes g);
  Graph.iter_nodes g ~f:(fun v ->
      write_option buf write_string (Graph.node_name g v);
      write_tuple buf (Graph.node_tuple g v));
  write_uvarint buf (Graph.n_edges g);
  Graph.iter_edges g ~f:(fun i e ->
      write_option buf write_string (Graph.edge_name g i);
      write_uvarint buf e.Graph.src;
      write_uvarint buf e.Graph.dst;
      write_tuple buf e.Graph.etuple)

let read_graph s off =
  if off >= String.length s then corrupt "truncated graph";
  let version = Char.code s.[off] in
  if version <> format_version then corrupt "unsupported format version %d" version;
  let off = off + 1 in
  if off >= String.length s then corrupt "truncated graph";
  let directed = s.[off] = '\001' in
  let off = off + 1 in
  let name, off = read_option s off read_string in
  let gtuple, off = read_tuple s off in
  let b = Graph.Builder.create ~directed ?name ~tuple:gtuple () in
  let n, off = read_uvarint s off in
  let off = ref off in
  for _ = 1 to n do
    let nm, o = read_option s !off read_string in
    let t, o = read_tuple s o in
    off := o;
    ignore (Graph.Builder.add_node b ?name:nm t)
  done;
  let m, o = read_uvarint s !off in
  off := o;
  for _ = 1 to m do
    let nm, o = read_option s !off read_string in
    let src, o = read_uvarint s o in
    let dst, o = read_uvarint s o in
    let t, o = read_tuple s o in
    off := o;
    if src >= n || dst >= n then corrupt "edge endpoint out of range";
    ignore (Graph.Builder.add_edge b ?name:nm ~tuple:t src dst)
  done;
  (Graph.Builder.build b, !off)

(* --- mutation ops (transaction-log payloads) --- *)

let write_op buf (op : Mutate.op) =
  match op with
  | Add_node { name; tuple } ->
    Buffer.add_char buf '\001';
    write_option buf write_string name;
    write_tuple buf tuple
  | Add_edge { name; src; dst; tuple } ->
    Buffer.add_char buf '\002';
    write_option buf write_string name;
    write_uvarint buf src;
    write_uvarint buf dst;
    write_tuple buf tuple
  | Set_node { v; tuple } ->
    Buffer.add_char buf '\003';
    write_uvarint buf v;
    write_tuple buf tuple
  | Set_edge { e; tuple } ->
    Buffer.add_char buf '\004';
    write_uvarint buf e;
    write_tuple buf tuple
  | Del_node v ->
    Buffer.add_char buf '\005';
    write_uvarint buf v
  | Del_edge e ->
    Buffer.add_char buf '\006';
    write_uvarint buf e

let read_op s off : Mutate.op * int =
  if off >= String.length s then corrupt "truncated op";
  let tag = s.[off] and off = off + 1 in
  match tag with
  | '\001' ->
    let name, off = read_option s off read_string in
    let tuple, off = read_tuple s off in
    (Add_node { name; tuple }, off)
  | '\002' ->
    let name, off = read_option s off read_string in
    let src, off = read_uvarint s off in
    let dst, off = read_uvarint s off in
    let tuple, off = read_tuple s off in
    (Add_edge { name; src; dst; tuple }, off)
  | '\003' ->
    let v, off = read_uvarint s off in
    let tuple, off = read_tuple s off in
    (Set_node { v; tuple }, off)
  | '\004' ->
    let e, off = read_uvarint s off in
    let tuple, off = read_tuple s off in
    (Set_edge { e; tuple }, off)
  | '\005' ->
    let v, off = read_uvarint s off in
    (Del_node v, off)
  | '\006' ->
    let e, off = read_uvarint s off in
    (Del_edge e, off)
  | c -> corrupt "bad op tag %C" c

let write_ops buf ops =
  write_uvarint buf (List.length ops);
  List.iter (write_op buf) ops

let read_ops s off =
  let n, off = read_uvarint s off in
  let off = ref off in
  let ops =
    List.init n (fun _ ->
        let op, o = read_op s !off in
        off := o;
        op)
  in
  (ops, !off)

let graph_to_string g =
  let buf = Buffer.create 256 in
  write_graph buf g;
  Buffer.contents buf

let graph_of_string s = fst (read_graph s 0)

(* --- CRC-32 (IEEE 802.3) ---------------------------------------------- *)

(* Slicing-by-8 over the reflected polynomial 0xEDB88320: table [k]
   (entries [256k .. 256k+255]) advances a byte that still has [k]
   bytes after it in the 8-byte block, so one block costs eight
   independent lookups instead of eight dependent ones. All arithmetic
   stays below 2^32, well inside OCaml's native int. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let crc32 ?(crc = 0) ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Codec.crc32";
  let t = crc_tables in
  let tab k i = Array.unsafe_get t ((k lsl 8) lor i) in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (byte (p + 4))
      lxor tab 2 (byte (p + 5))
      lxor tab 1 (byte (p + 6))
      lxor tab 0 (byte (p + 7));
    i := p + 8
  done;
  for p = stop8 to off + len - 1 do
    c := tab 0 ((!c lxor byte p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
