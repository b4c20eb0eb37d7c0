(** Minimal JSON codec for the observability layer.

    hydra.obs is deliberately zero-dependency, so trace lines, metric
    snapshots and [BENCH_*.json] artifacts are emitted (and, for
    validation, re-parsed) with this tiny codec instead of an external
    JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. Finite floats print in the fewest
    significant digits (15 to 17) that {!parse} reads back to the same
    float; non-finite floats render as [null] (JSON has no inf/nan). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for files meant for humans. *)

val parse : string -> (t, string) result
(** Strict parser for the subset this codec emits (which is standard
    JSON); numbers with a fraction or exponent come back as [Float],
    others as [Int]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for missing fields or non-objects. *)

(** {2 Decoding}

    Typed accessors for reading documents back; each raises {!Decode}
    on a missing field or a value of the wrong shape. *)

exception Decode of string

val field : string -> t -> t
val str : t -> string
val int : t -> int

val num : t -> float
(** [Float] or [Int]; [Null] (a non-finite float as written by
    {!to_string}) reads as [nan]. *)

val list : t -> t list
val obj : t -> (string * t) list
