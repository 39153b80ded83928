(** Byte-level primitives shared by every wire codec.

    Encoding appends to a standard [Buffer.t]; decoding walks a bounded
    cursor over an immutable string and returns [result] — decoders never
    raise on malformed or truncated input, which is what lets the frame
    layer resynchronise after garbage instead of tearing the connection
    down.

    Integers travel as LEB128 varints. Signed fields use the zigzag
    mapping first so small negative values stay short; all [int] values
    representable in OCaml (63-bit) round-trip exactly — generation and
    stamp counters are preserved bit-for-bit. *)

type error =
  | Truncated  (** Input ended mid-value; more bytes may complete it. *)
  | Malformed of string  (** Structurally invalid; more bytes won't help. *)

val pp_error : Format.formatter -> error -> unit

(** {1 Encoding} *)

module Enc : sig
  val byte : Buffer.t -> int -> unit
  (** Low 8 bits of the argument. *)

  val uvarint : Buffer.t -> int -> unit
  (** LEB128; requires a non-negative argument. *)

  val int : Buffer.t -> int -> unit
  (** Zigzag + LEB128: any OCaml int, negative included. *)

  val bool : Buffer.t -> bool -> unit

  val option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
  (** Presence byte, then the payload when present. *)

  val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
  (** Length uvarint, then the elements in order. *)

  val int_array : Buffer.t -> int array -> unit
  (** Length uvarint, then zigzag elements. *)

  val string : Buffer.t -> string -> unit
  (** Length uvarint, then the raw bytes. *)
end

(** {1 Decoding} *)

module Dec : sig
  type t
  (** A cursor over [data.[pos .. limit-1]]. Reads advance [pos]; a failed
      read leaves the cursor position unspecified, so callers abandon the
      cursor on [Error]. *)

  val of_string : ?pos:int -> ?limit:int -> string -> t

  val of_bytes : ?pos:int -> ?limit:int -> bytes -> t
  (** Zero-copy cursor over a caller-owned byte window (e.g. a frame
      decoder's buffer). The caller must not mutate
      [data.[pos .. limit-1]] while the cursor is in use. *)

  val reset : t -> bytes -> pos:int -> limit:int -> unit
  (** Point the cursor at another window, with {!of_bytes}'s checks,
      without allocating: one cursor can serve every frame a loop
      decodes. *)

  val pos : t -> int
  val remaining : t -> int

  val byte : t -> (int, error) result
  val uvarint : t -> (int, error) result

  exception Failed of error

  val byte_exn : t -> int
  val uvarint_exn : t -> int
  (** As {!byte} and {!uvarint}, allocating nothing: the value itself,
      or [Failed] with the error the result form returns. *)

  val int : t -> (int, error) result
  val bool : t -> (bool, error) result
  val option : (t -> ('a, error) result) -> t -> ('a option, error) result
  val list : (t -> ('a, error) result) -> t -> ('a list, error) result
  val int_array : t -> (int array, error) result
  val string : t -> (string, error) result

  val expect_end : t -> (unit, error) result
  (** [Ok] iff the cursor consumed every byte up to its limit — trailing
      junk inside a frame is a decode error, not padding. *)

  val ( let* ) : ('a, error) result -> ('a -> ('b, error) result) -> ('b, error) result
end
