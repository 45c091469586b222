(** Minimal JSON tree, emitter and recursive-descent parser, plus the
    one artifact envelope ({!Jsonl}) every versioned file goes through.

    The project depends on no JSON library.  The emitted grammar (and
    the subset parsed) is exactly RFC 8259 minus exotic number forms —
    ints, floats, strings with the usual escapes, bools, null, arrays,
    objects. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string

(** Parse a complete JSON document (trailing whitespace allowed).
    Numbers without [.], [e] or [E] parse as [Int].  Never raises:
    truncated or corrupt input — including pathological nesting —
    returns [Error] naming the byte offset of the failure, so consumers
    (the bench gate, the runner's checkpoint loader) can render a clear
    message instead of dying on an exception. *)
val parse : string -> (t, string) result

(** [member key j] — field of an object, [None] otherwise. *)
val member : string -> t -> t option

(** Numeric coercion: [Int] or [Float] as float. *)
val to_float : t -> float option

(** The artifact envelope: the only code that knows how a versioned
    artifact is laid out.  Two rules:

    - a versioned object carries ["schema"] (a string such as
      ["elastic-speculation/trace/v1"]) as its {e first} field;
    - a JSONL file is one such header object on line 1, then one JSON
      object per line, every line ending in ["\n"].

    Each artifact's owning module exports its [schema] constant
    ([Trace.Jsonl], [Sampler], [Lint], [Flow], [Export], [Checkpoint],
    [Status], [Gate]); emitters build through {!tag} / {!to_string} and
    readers check through {!check} / {!read}. *)
module Jsonl : sig
  (** Why a document or file was refused.  Lines are 1-based physical
      line numbers; a single document ({!check}) is line 1. *)
  type error =
    | Empty  (** no non-blank line at all *)
    | Not_json of { line : int; msg : string }
    | No_schema of { line : int }
        (** the object's first field is not a ["schema"] string *)
    | Wrong_schema of { line : int; found : string; want : string }
    | Bad_row of { line : int; msg : string }
        (** valid JSON the header or row decoder rejected *)

  (** One line of text naming the line and, for a schema mismatch, both
      schema strings. *)
  val error_to_string : error -> string

  (** [tag ~schema fields] is [Obj (("schema", Str schema) :: fields)]. *)
  val tag : schema:string -> (string * t) list -> t

  (** [to_string ~schema header rows]: the whole file — [tag ~schema
      header] on line 1, then one compact row per line. *)
  val to_string : schema:string -> (string * t) list -> t list -> string

  (** Check the tag of a single-document artifact (a bench record, a
      status document, one metrics row). *)
  val check : schema:string -> t -> (unit, error) result

  (** [read ~schema ~header ~row text] parses a whole JSONL file: the
      first non-blank line must carry [schema] and decode with [header]
      (which sees the whole object, tag included); every later
      non-blank line must decode with [row].  Returns the header, the
      rows in file order and [truncated].  A final line that fails to
      parse or decode is dropped with [truncated = true] only when
      [text] does not end in ["\n"] (a writer killed mid-append);
      anywhere else it is an [error].  Never raises. *)
  val read :
    schema:string ->
    header:(t -> ('h, string) result) ->
    row:(t -> ('r, string) result) ->
    string ->
    ('h * 'r list * bool, error) result
end
