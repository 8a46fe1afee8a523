(* Length-prefixed NDJSON wire frames with a CRC'd self-validating
   header, plus the minimal JSON the request/response surface needs.
   See protocol.mli for the layout. *)

let default_max_frame = 16 * 1024 * 1024
let magic = "GQW1"
let header_len = 16

module Codec = Gql_storage.Codec

type frame_error =
  | Torn
  | Bad_magic
  | Oversized of { len : int; max : int }
  | Header_crc_mismatch
  | Payload_crc_mismatch

let frame_error_to_string = function
  | Torn -> "torn frame: stream ended mid-frame"
  | Bad_magic -> "bad frame magic (not a gqlsh wire stream?)"
  | Oversized { len; max } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len max
  | Header_crc_mismatch -> "header CRC mismatch"
  | Payload_crc_mismatch -> "payload CRC mismatch"

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* Fill the header slot of [b], whose payload is already in place
   after it. *)
let seal b =
  let len = Bytes.length b - header_len in
  let s = Bytes.unsafe_to_string b in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int len);
  Bytes.set_int32_be b 8 (Int32.of_int (Codec.crc32 ~off:header_len ~len s));
  Bytes.set_int32_be b 12 (Int32.of_int (Codec.crc32 ~len:12 s));
  s

let encode payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string payload 0 b header_len len;
  seal b

(* Header validation order matters: magic first (catches stream
   desynchronization with a clear message), then the header CRC
   (which also covers the length field), and only then is the length
   trusted — against [max_frame] before any allocation. The header is
   the [header_len] bytes of [s] at [off]. *)
let check_header ?(max_frame = default_max_frame) s off =
  if not (String.equal (String.sub s off 4) magic) then Error Bad_magic
  else if get_u32 s (off + 12) <> Codec.crc32 ~off ~len:12 s then
    Error Header_crc_mismatch
  else
    let len = get_u32 s (off + 4) in
    if len > max_frame then Error (Oversized { len; max = max_frame })
    else Ok (len, get_u32 s (off + 8))

let decode ?max_frame ?(off = 0) s =
  let n = String.length s in
  if n - off < header_len then Error Torn
  else
    match check_header ?max_frame s off with
    | Error e -> Error e
    | Ok (len, crc) ->
      if n - off - header_len < len then Error Torn
      else if Codec.crc32 ~off:(off + header_len) ~len s <> crc then
        Error Payload_crc_mismatch
      else Ok (String.sub s (off + header_len) len, off + header_len + len)

(* --- fd reader/writer ----------------------------------------------------- *)

let really_read fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> Error Torn
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame ?max_frame fd =
  match really_read fd header_len with
  | Error e -> Error e
  | Ok h -> (
    match check_header ?max_frame h 0 with
    | Error e -> Error e
    | Ok (len, crc) -> (
      match really_read fd len with
      | Error e -> Error e
      | Ok payload ->
        if Codec.crc32 payload <> crc then Error Payload_crc_mismatch
        else Ok payload))

let write_encoded fd frame =
  let s = Bytes.unsafe_of_string frame in
  let len = Bytes.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd payload = write_encoded fd (encode payload)

(* --- minimal JSON ---------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (* Append [s] JSON-escaped, copying each run of plain bytes at once. *)
  let add_escaped buf s =
    let n = String.length s in
    let flush start i =
      if i > start then Buffer.add_substring buf s start (i - start)
    in
    let rec go start i =
      if i = n then flush start i
      else
        match s.[i] with
        | ('"' | '\\' | '\000' .. '\031') as c ->
          flush start i;
          Buffer.add_string buf
            (match c with
            | '"' -> "\\\""
            | '\\' -> "\\\\"
            | '\n' -> "\\n"
            | '\r' -> "\\r"
            | '\t' -> "\\t"
            | c -> Printf.sprintf "\\u%04x" (Char.code c));
          go (i + 1) (i + 1)
        | _ -> go start (i + 1)
    in
    go 0 0

  let add_key buf k =
    Buffer.add_char buf '"';
    add_escaped buf k;
    Buffer.add_string buf "\":"

  let rec add_to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_to_buffer buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          add_key buf k;
          add_to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    add_to_buffer buf v;
    Buffer.contents buf

  exception Bad of string

  (* Recursion bound for the descent parser: a frame of nothing but
     '[' is ~16M deep and would hit Stack_overflow — an exception the
     server must not let escape a connection thread. No legitimate
     protocol document nests past a handful of levels. *)
  let max_depth = 512

  let bad msg at = raise (Bad (Printf.sprintf "%s at byte %d" msg at))

  (* the quote closing a string literal, searched from [i] inside its
     body; -1 when there is none *)
  let rec closing_quote s i =
    if i >= String.length s then -1
    else
      match String.unsafe_get s i with
      | '"' -> i
      | '\\' -> closing_quote s (i + 2)
      | _ -> closing_quote s (i + 1)

  let hex_digit s j =
    match s.[j] with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> bad "bad \\u escape" j

  (* Decode the body [start, stop) of a string literal whose closing
     quote is at [stop]. Decoding never lengthens a string, so the
     output fits bytes sized by the escaped length. *)
  let unescape s start stop =
    let out = Bytes.create (stop - start) in
    let k = ref 0 and i = ref start in
    while !i < stop do
      let c = String.unsafe_get s !i in
      if c <> '\\' then begin
        Bytes.unsafe_set out !k c;
        incr k;
        incr i
      end
      else begin
        (* [closing_quote] skipped this escape's letter, so it lies
           before [stop] *)
        let at = !i in
        i := at + 2;
        match s.[at + 1] with
        | 'u' ->
          if at + 6 > stop then bad "truncated \\u escape" at;
          let code =
            (hex_digit s (at + 2) lsl 12)
            lor (hex_digit s (at + 3) lsl 8)
            lor (hex_digit s (at + 4) lsl 4)
            lor hex_digit s (at + 5)
          in
          i := at + 6;
          (* decode as UTF-8; the protocol only emits \u for control
             characters but accepts the full BMP *)
          if code < 0x80 then begin
            Bytes.unsafe_set out !k (Char.chr code);
            incr k
          end
          else if code < 0x800 then begin
            Bytes.unsafe_set out !k (Char.chr (0xC0 lor (code lsr 6)));
            Bytes.unsafe_set out (!k + 1)
              (Char.chr (0x80 lor (code land 0x3F)));
            k := !k + 2
          end
          else begin
            Bytes.unsafe_set out !k (Char.chr (0xE0 lor (code lsr 12)));
            Bytes.unsafe_set out (!k + 1)
              (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Bytes.unsafe_set out (!k + 2)
              (Char.chr (0x80 lor (code land 0x3F)));
            k := !k + 3
          end
        | e ->
          Bytes.unsafe_set out !k
            (match e with
            | '"' | '\\' | '/' -> e
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | _ -> bad "bad escape" at);
          incr k
      end
    done;
    Bytes.sub_string out 0 !k

  (* recursive-descent parser over a cursor; raises [Bad], caught at
     the [parse] boundary *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    (* end of the run of bytes from [i] that need no unescaping *)
    let rec plain i =
      if i < n && s.[i] <> '"' && s.[i] <> '\\' then plain (i + 1) else i
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      let stop = plain start in
      if stop < n && s.[stop] = '"' then begin
        (* no escapes: one copy *)
        pos := stop + 1;
        String.sub s start (stop - start)
      end
      else
        match closing_quote s stop with
        | -1 -> fail "unterminated string"
        | stop ->
          pos := stop + 1;
          unescape s start stop
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number")
    in
    let rec parse_value depth =
      if depth > max_depth then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let str = function Str s -> Some s | _ -> None
  let int = function Int i -> Some i | _ -> None

  let float = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None

  let bool = function Bool b -> Some b | _ -> None
  let list = function List l -> Some l | _ -> None
end

(* --- requests -------------------------------------------------------------- *)

type request =
  | Query of {
      q_id : int;
      q_src : string;
      q_deadline : float option;
      q_wait_watermark : bool;
    }
  | Show_queries of { q_id : int }
  | Kill of { q_id : int; q_target : int }
  | Ping of { q_id : int }
  | Shutdown of { q_id : int }

let request_id = function
  | Query { q_id; _ }
  | Show_queries { q_id }
  | Kill { q_id; _ }
  | Ping { q_id }
  | Shutdown { q_id } ->
    q_id

let request_to_json r =
  let open Json in
  match r with
  | Query { q_id; q_src; q_deadline; q_wait_watermark } ->
    Obj
      (("op", Str "query") :: ("id", Int q_id) :: ("query", Str q_src)
      :: (match q_deadline with
         | Some d -> [ ("deadline", Float d) ]
         | None -> [])
      @ if q_wait_watermark then [ ("wait_watermark", Bool true) ] else [])
  | Show_queries { q_id } -> Obj [ ("op", Str "show_queries"); ("id", Int q_id) ]
  | Kill { q_id; q_target } ->
    Obj [ ("op", Str "kill"); ("id", Int q_id); ("qid", Int q_target) ]
  | Ping { q_id } -> Obj [ ("op", Str "ping"); ("id", Int q_id) ]
  | Shutdown { q_id } -> Obj [ ("op", Str "shutdown"); ("id", Int q_id) ]

let request_of_json j =
  let open Json in
  let id = Option.value ~default:0 (Option.bind (member "id" j) int) in
  match Option.bind (member "op" j) str with
  | None -> Error "request has no \"op\" field"
  | Some "query" -> (
    match Option.bind (member "query" j) str with
    | None -> Error "query request has no \"query\" field"
    | Some src ->
      Ok
        (Query
           {
             q_id = id;
             q_src = src;
             q_deadline = Option.bind (member "deadline" j) float;
             q_wait_watermark =
               Option.value ~default:false
                 (Option.bind (member "wait_watermark" j) bool);
           }))
  | Some "show_queries" -> Ok (Show_queries { q_id = id })
  | Some "kill" -> (
    match Option.bind (member "qid" j) int with
    | None -> Error "kill request has no \"qid\" field"
    | Some target -> Ok (Kill { q_id = id; q_target = target }))
  | Some "ping" -> Ok (Ping { q_id = id })
  | Some "shutdown" -> Ok (Shutdown { q_id = id })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* --- query responses ------------------------------------------------------- *)

type query_response = {
  qr_id : int;
  qr_qid : int;
  qr_status : string;
  qr_stopped : string;
  qr_error : string option;
  qr_graphs : string list;
  qr_vars : int;
  qr_writes : int;
  qr_wall_ms : float;
  qr_shards_ok : int;
  qr_shards_failed : string list;
}

let query_response_to_json r =
  let open Json in
  Obj
    ([
       ("id", Int r.qr_id);
       ("qid", Int r.qr_qid);
       ("status", Str r.qr_status);
       ("stopped", Str r.qr_stopped);
     ]
    @ (match r.qr_error with Some e -> [ ("error", Str e) ] | None -> [])
    @ [
        ("graphs", List (List.map (fun g -> Str g) r.qr_graphs));
        ("vars", Int r.qr_vars);
        ("writes", Int r.qr_writes);
        ("wall_ms", Float r.qr_wall_ms);
        ("shards_ok", Int r.qr_shards_ok);
        ( "shards_failed",
          List (List.map (fun s -> Str s) r.qr_shards_failed) );
      ])

let query_response_of_json j =
  let open Json in
  let strs field =
    match Option.bind (member field j) list with
    | None -> []
    | Some items -> List.filter_map str items
  in
  match Option.bind (member "status" j) str with
  | None -> Error "response has no \"status\" field"
  | Some status ->
    let geti ~default f = Option.value ~default (Option.bind (member f j) int) in
    Ok
      {
        qr_id = geti ~default:0 "id";
        qr_qid = geti ~default:(-1) "qid";
        qr_status = status;
        qr_stopped =
          Option.value ~default:"exhausted"
            (Option.bind (member "stopped" j) str);
        qr_error = Option.bind (member "error" j) str;
        qr_graphs = strs "graphs";
        qr_vars = geti ~default:0 "vars";
        qr_writes = geti ~default:0 "writes";
        qr_wall_ms =
          Option.value ~default:0.0 (Option.bind (member "wall_ms" j) float);
        qr_shards_ok = geti ~default:1 "shards_ok";
        qr_shards_failed = strs "shards_failed";
      }

(* The one-pass writer. The graphs section is laid out first, in its
   own buffer: the truncation count it settles decides the "error"
   field, which precedes "graphs". The other fields are printed from
   [query_response_to_json] itself, so their order and number format
   cannot drift from the reference route. *)
let query_response_frame ~max_frame head ~render ~same items =
  let budget = (max_frame / 2) - 4096 in
  (* the last rendered item's text, and that text escaped and quoted *)
  let text = Buffer.create 256 and quoted = Buffer.create 256 in
  let section = Buffer.create 256 in
  let rec go bytes prev = function
    | [] -> 0
    | item :: rest ->
      (match prev with
      | Some p when same p item -> ()
      | _ ->
        Buffer.clear text;
        render text item;
        Buffer.clear quoted;
        Buffer.add_char quoted '"';
        Json.add_escaped quoted (Buffer.contents text);
        Buffer.add_char quoted '"');
      let bytes = bytes + Buffer.length text + 16 in
      if bytes > budget then 1 + List.length rest
      else begin
        if Option.is_some prev then Buffer.add_char section ',';
        Buffer.add_buffer section quoted;
        go bytes (Some item) rest
      end
  in
  Buffer.add_char section '[';
  let dropped = go 0 None items in
  Buffer.add_char section ']';
  let error =
    if dropped = 0 then head.qr_error
    else
      let note =
        Printf.sprintf
          "%d graph(s) dropped: response would exceed the %d-byte frame limit"
          dropped max_frame
      in
      Some (match head.qr_error with Some e -> e ^ "; " ^ note | None -> note)
  in
  let fields =
    match
      query_response_to_json { head with qr_error = error; qr_graphs = [] }
    with
    | Json.Obj fields -> fields
    | _ -> assert false
  in
  (* the frame but for the graphs section: the header slot, then the
     fields, with the section's place at [split] *)
  let frame = Buffer.create 256 and split = ref 0 in
  Buffer.add_string frame (String.make header_len '\000');
  Buffer.add_char frame '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char frame ',';
      Json.add_key frame k;
      if String.equal k "graphs" then split := Buffer.length frame
      else Json.add_to_buffer frame v)
    fields;
  Buffer.add_char frame '}';
  let n_frame = Buffer.length frame and n_section = Buffer.length section in
  let b = Bytes.create (n_frame + n_section) in
  Buffer.blit frame 0 b 0 !split;
  Buffer.blit section 0 b !split n_section;
  Buffer.blit frame !split b (!split + n_section) (n_frame - !split);
  (seal b, dropped)
