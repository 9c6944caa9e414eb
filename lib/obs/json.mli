(** The one JSON codec: every NDJSON record (trace, checkpoint, corpus)
    and every [BENCH_*.json] document is written and read here.

    {b Numbers.}  [Int] and [Float] are kept apart: an [Int] prints as
    its digits, and a literal without fraction or exponent parses back
    to an exact [Int], so no count passes through a float.  A [Float]
    prints as the shorter of [%.15g] and [%.17g] that reads back to the
    same value, with [".0"] appended when that text would read as an
    integer; non-finite floats print as [null].

    {b Strings.}  The writer escapes the double quote, the backslash,
    newline, tab and carriage return by name and every other byte below
    [0x20] as [\u00XX]; other bytes pass through, so every byte string
    survives [parse (print (Str s))]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in order *)

exception Malformed of string

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes. *)

val print : t -> string
(** One line, no spaces: the NDJSON record form. *)

val print_doc : t -> string
(** The document form, newline-terminated, with [", "] and [": "]
    separators.  A container breaks one member per line exactly when it
    holds a non-empty container, so a document's row arrays read one row
    per line. *)

val parse : string -> t
(** Strict RFC 8259 for one value.  Rejects numbers outside the grammar
    ([+1], [.5], [01], [1.]), integers outside OCaml's [int] range,
    floats that overflow, raw control characters in strings, bad or
    unpaired [\uXXXX] escapes (a surrogate pair decodes to one UTF-8
    character) and trailing input.  Bytes [>= 0x80] are kept as is.
    @raise Malformed naming the offending position. *)

(** {1 Accessors}  Each raises [Malformed] describing what it found. *)

val member : string -> t -> t
(** The first member named [k] of an object. *)

val member_opt : string -> t -> t option
val to_int : t -> int
(** [Int] only: [1.5], [1e3] and [1e19] are not integers. *)

val to_float : t -> float
(** [Float] or [Int]. *)

val to_bool : t -> bool
val to_string : t -> string
val to_list : t -> t list

val write_ndjson : path:string -> t list -> unit
(** Write one {!print}ed record per line to [path ^ ".tmp"], then rename
    it over [path]: [Sys.rename] is atomic on POSIX, so a kill mid-save
    leaves the previous file in place. *)

val read_ndjson :
  what:string -> schemas:string list -> string -> (t -> unit) -> (unit, string) result
(** [read_ndjson ~what ~schemas path on_record] reads an NDJSON file:
    blank lines are skipped, the first line's ["schema"] must be listed
    in [schemas], and each later line is parsed and passed to
    [on_record] in order.  The file is closed on every path.  Every
    failure — unreadable or empty file, unlisted schema, malformed line,
    [Malformed] or [Failure] from [on_record] — is an [Error] naming
    [path], [what] the file is, and the line. *)
