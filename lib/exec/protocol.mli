(** The gqlsh wire protocol: length-prefixed NDJSON frames.

    One frame carries one request or one response — a single JSON
    document, by convention on one line. The 16-byte header is
    self-validating so a desynchronized or corrupted stream is detected
    before any payload is trusted:

    {v
    offset  size  field
    0       4     magic "GQW1"
    4       4     payload length, big-endian u32
    8       4     CRC32 of the payload
    12      4     CRC32 of header bytes 0..11
    16      len   payload (one JSON document, UTF-8)
    v}

    The length field is validated against [max_frame] {e before} any
    payload allocation, so a hostile or garbage header cannot make the
    server allocate gigabytes. Every decode failure is a typed
    {!frame_error}; readers map it onto [Error.Protocol] (exit 5).

    Both CRCs are [Gql_storage.Codec.crc32], the one CRC-32 of the
    system, run over byte ranges of the frame in place. *)

val default_max_frame : int
(** 16 MiB. *)

type frame_error =
  | Torn  (** stream ended inside a header or payload *)
  | Bad_magic
  | Oversized of { len : int; max : int }
  | Header_crc_mismatch
  | Payload_crc_mismatch

val frame_error_to_string : frame_error -> string

val encode : string -> string
(** Frame a payload: header + payload, ready to write. *)

val decode : ?max_frame:int -> ?off:int -> string -> (string * int, frame_error) result
(** Decode one frame starting at [off] (default 0): [Ok (payload, next)]
    where [next] is the offset just past the frame. Pure — the
    property-tested core of the fd reader. *)

val read_frame : ?max_frame:int -> Unix.file_descr -> (string, frame_error) result
(** Blocking read of one frame. [Error Torn] on EOF (clean EOF between
    frames included — the caller distinguishes by position if it needs
    to). [EINTR] is retried internally; other Unix errors (e.g. a
    receive timeout) propagate as [Unix.Unix_error]. *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame and write a payload, handling short writes. *)

val write_encoded : Unix.file_descr -> string -> unit
(** Write an already encoded frame (see {!query_response_frame}),
    handling short writes. *)

(** {1 Minimal JSON}

    The protocol needs a parser (requests arrive as text) and the repo
    bakes in no JSON dependency, so here is the smallest useful one:
    objects, arrays, strings (with escapes), ints, floats, booleans,
    null. Integers that fit are kept exact. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Whole-string parse (trailing garbage is an error). Nesting
      deeper than 512 levels is rejected — a recursion bound, so a
      hostile frame of brackets cannot raise [Stack_overflow]. *)

  val to_string : t -> string
  (** Compact single-line rendering — one frame, one line. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] otherwise. *)

  val str : t -> string option
  val int : t -> int option
  val float : t -> float option
  val bool : t -> bool option
  val list : t -> t list option
end

(** {1 Requests}

    The client-to-server surface. [q_id] is chosen by the client and
    echoed in the response, so a client can pipeline requests on one
    connection and match answers. *)

type request =
  | Query of {
      q_id : int;
      q_src : string;  (** the program text *)
      q_deadline : float option;  (** seconds, applied at admission *)
      q_wait_watermark : bool;  (** gate on all previously staged writes *)
    }
  | Show_queries of { q_id : int }
  | Kill of { q_id : int; q_target : int }  (** cancel a live query *)
  | Ping of { q_id : int }
  | Shutdown of { q_id : int }

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val request_id : request -> int

(** {1 Query responses}

    The one response shape the router must interpret to merge shard
    results; introspection responses ([show queries], [ping]) stay
    schemaless JSON. [qr_status] is ["ok"] or an [Error.wire_status];
    ["shard-failure"] responses still carry the surviving shards'
    graphs — partial results, typed. *)

type query_response = {
  qr_id : int;  (** echo of the request's [q_id] *)
  qr_qid : int;  (** server-side query id ([show queries] / [kill]) *)
  qr_status : string;
  qr_stopped : string;  (** [Budget.stop_reason_to_string] *)
  qr_error : string option;
  qr_graphs : string list;  (** rendered returned graphs *)
  qr_vars : int;
  qr_writes : int;
  qr_wall_ms : float;
  qr_shards_ok : int;  (** router only; 1 on a plain server *)
  qr_shards_failed : string list;  (** router only: dead shard addrs *)
}

val query_response_to_json : query_response -> Json.t
val query_response_of_json : Json.t -> (query_response, string) result

val query_response_frame :
  max_frame:int ->
  query_response ->
  render:(Buffer.t -> 'a -> unit) ->
  same:('a -> 'a -> bool) ->
  'a list ->
  string * int
(** [query_response_frame ~max_frame head ~render ~same items] is the
    encoded frame of the response [head] carrying the texts [render]
    gives [items] as its graphs ([head.qr_graphs] is ignored), and the
    number of items dropped to fit the frame.

    The frame is written in one pass: each item is rendered into one
    reused scratch buffer and JSON-escaped once; when [same prev item]
    holds for the previous item, that escaped text is appended again
    without rendering. [same] must therefore imply equal rendered text
    — [Gql_graph.Graph.prints_as] for graphs, [String.equal] for
    texts. Only the previous item is remembered, which is what a run
    of answers from one compiled template needs.

    Items are kept while their rendered lengths plus 16 bytes each fit
    in half the frame budget less 4 KiB, leaving room for escaping; the
    rest are dropped and a note saying how many is appended to the
    error field. The bytes equal
    [encode (Json.to_string (query_response_to_json r))], where [r] is
    [head] with those kept texts and that error. *)
