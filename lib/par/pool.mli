(** A fixed, work-stealing-free domain pool for deterministic data
    parallelism.

    HYDRA's hot paths are embarrassingly parallel: every view's LP is
    solved independently, tuple materialization is a pure function of the
    summary, and each query's AQP is evaluated on its own. The pool runs
    such index-ranged jobs on a fixed set of OCaml 5 domains and returns
    results {e slotted by index}, so the output of [map] is byte-for-byte
    identical for any jobs count — the determinism contract the test
    battery locks down.

    Scheduling is dynamic (workers claim the next unclaimed index under
    one mutex) but result placement is static, so only timing — never
    output — depends on the interleaving.

    Exceptions raised by tasks are captured per index; after the whole
    batch has settled, {e all} of them are re-raised together as
    {!Batch_failure} (ascending index order), so no worker's diagnosis
    is lost. A batch that raises leaves the pool fully reusable.
    {!map_range_result} exposes the same run without raising, for
    callers — like [Supervisor] — that want to retry selectively.

    A pool with [jobs <= 1] spawns no domains and runs every batch inline
    on the caller, so sequential mode pays nothing and shares the exact
    code path with parallel mode. Nested submissions from inside a worker
    also run inline (same domain), which makes accidental re-entrancy
    safe instead of a deadlock. *)

type t

type failure = {
  f_index : int;  (** the batch index whose task raised *)
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
}

exception Batch_failure of failure list
(** Every failure of a settled batch, ascending by index. *)

val create : int -> t
(** [create jobs] spawns [jobs - 1] worker domains (the caller
    participates as the remaining worker while a batch runs). [jobs <= 1]
    spawns none. @raise Invalid_argument on [jobs < 1]. *)

val jobs : t -> int
(** The parallelism width this pool was created with. *)

val default_jobs : unit -> int
(** [HYDRA_JOBS] when set, otherwise [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [HYDRA_JOBS] is set to anything but an
    integer >= 1, with the message the CLI's [--jobs] gives for it. *)

val map_range : t -> int -> (int -> 'a) -> 'a array
(** [map_range pool n f] computes [f i] for [0 <= i < n], each index
    exactly once, and returns the results in index order. When tasks
    raised, raises {!Batch_failure} with every captured failure after
    the batch settles — except a simulated [Chaos.Crashed], which is
    re-raised as itself (lowest index) so crash tests observe it
    unwrapped. *)

val map_range_result : t -> int -> (int -> 'a) -> ('a, failure) result array
(** Like {!map_range} but never raises: each slot carries its task's
    result or captured failure. *)

val raise_crash : ('a, failure) result array -> unit
(** Re-raise the lowest-index simulated [Chaos.Crashed] of a settled
    batch, unwrapped, with its backtrace; otherwise do nothing. *)

val iter_range : t -> int -> (int -> unit) -> unit

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_range] over a list, preserving order. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; the pool must not be used
    afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool jobs f] runs [f] with a fresh pool and always shuts it
    down, even when [f] raises. *)
