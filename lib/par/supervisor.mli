(** Retries for {!Pool} batches.

    A task that raised [Chaos.Injected] (a transient fault) is re-run
    at once, at most twice. Every other failure is final. Retries
    affect timing only: results stay slotted by index, so a run whose
    fault was retried is byte-identical to one that did not fault. *)

val map_range :
  Pool.t -> int -> (int -> 'a) -> ('a, Pool.failure) result array * int array
(** [map_range pool n f] runs the batch and returns the settled
    per-index results plus how many attempts each index consumed
    (1 = first try succeeded). The indices whose task raised
    [Chaos.Injected] are re-run together as a fresh batch, up to two
    times, each retry logged as a Warn-level obs incident. Every other
    failure, and an injected one still failing after two retries, stays
    an [Error] slot (an Error-level incident each): the caller decides
    how to degrade. Never raises, except [Chaos.Crashed], which is
    re-raised unwrapped (simulated process death). *)
