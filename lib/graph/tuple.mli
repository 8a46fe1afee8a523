(** Attribute tuples.

    A tuple is a list of name/value pairs with an optional {e tag} denoting
    the tuple type (Section 3.1). Tuples annotate nodes, edges and whole
    graphs; they are the GraphQL analogue of relational tuples, except that
    two tuples in the same collection need not share a schema. *)

type t

val empty : t

val make : ?tag:string -> (string * Value.t) list -> t
(** [make ~tag attrs] builds a tuple. Later bindings of the same name
    shadow earlier ones. *)

val tag : t -> string option

val find : t -> string -> Value.t option
(** [find t name] is the value bound to attribute [name], if any. *)

val get : t -> string -> Value.t
(** Like {!find} but returns [Value.Null] when the attribute is absent —
    the semantics used by predicate evaluation, where a comparison against
    a missing attribute is simply false rather than an error. *)

val mem : t -> string -> bool

val set : t -> string -> Value.t -> t
(** Functional update; adds the binding or replaces an existing one. *)

val remove : t -> string -> t

val bindings : t -> (string * Value.t) list
(** Bindings in insertion order (with shadowed entries removed). *)

val names : t -> string list

val cardinal : t -> int

val union : t -> t -> t
(** [union a b] contains all bindings of [a] and [b]; on a name clash [b]
    wins. The tag of [a] is kept unless [a] has none. When one side is
    {!is_empty} the other is returned as is. *)

val project : t -> string list -> t
(** Keep only the named attributes (missing names are ignored). *)

val rename : t -> (string * string) list -> t
(** Rename attributes according to the association list. *)

val label : t -> string
(** Convenience accessor for the canonical ["label"] attribute used
    throughout the experimental study; [""] when absent or non-string.
    A string-valued tag is used as a fallback label, mirroring the paper's
    [<author ...>] tuples where the tag acts as the node kind. *)

val equal : t -> t -> bool
(** Equality on tags and on the (name, value) {e sets} (order-insensitive). *)

val compare : t -> t -> int

val hash : t -> int

val is_empty : t -> bool
(** No tag and no bindings: [equal t empty], without the sort. *)

val pp : Format.formatter -> t -> unit
(** Prints in GraphQL syntax: [<tag name1=v1 name2=v2>]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!pp} text. *)

val prints_as : t -> t -> bool
(** A sufficient test that two tuples print the same text: same tag and
    the same attributes in the same order, pairwise
    {!Value.prints_as}. Unlike {!equal} it neither sorts nor allocates,
    and it tells reordered attributes apart, since they print
    differently. *)
