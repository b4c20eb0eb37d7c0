(** Deterministic fault injection for crash-safety testing.

    A {e fault plan} arms one named {e site} — a place in the pipeline
    that has opted in by calling {!tap} — and makes the [n]-th pass
    through that site fail in a chosen way. Plans are fully
    deterministic: the same plan against the same workload fires at the
    same point every run, which is what lets the test battery prove
    byte-identical crash/resume behaviour.

    When no plan is armed, {!tap} is a single mutable-bool read — the
    production pipeline pays nothing for carrying the hooks. *)

val sites : string list
(** The registry of named injection sites, in pipeline order:
    ["solve"], ["pool.task"], ["cache.read"], ["cache.write"],
    ["journal.append"], ["summary.save"], ["materialize.shard"].
    ["journal.append"] taps each write of the [--state-dir] store. The
    name predates that store and no report says "journal" any more; it
    is kept because existing chaos plans aim at it. *)

type kind =
  | Transient  (** raise {!Injected} — a retryable worker failure *)
  | Crash  (** raise {!Crashed} — simulated process death, unwinds *)
  | Kill  (** [Unix._exit 70] — real process death, nothing unwinds *)

type plan = {
  site : string;  (** which {!sites} entry to arm *)
  kind : kind;
  after : int;  (** fire on the [after]-th pass through the site (1-based) *)
  times : int;  (** how many consecutive passes fire; [0] = unlimited *)
}

exception Injected of string
(** A transient injected failure; carries the site name. Classified as
    retryable by [Supervisor.default_policy]. *)

exception Crashed of string
(** A simulated crash; carries the site name. Never caught inside the
    pipeline — it unwinds to the test harness (or to the CLI, exit 70)
    exactly like a power cut would end the process. *)

val is_injected : exn -> bool
(** [true] for {!Injected} and {!Crashed}. Every catch-all handler in
    the pipeline guards with [when not (Chaos.is_injected e)] so
    injected faults are never absorbed into graceful degradation. *)

val parse : string -> (plan, string) result
(** Parse a plan spec: comma-separated [key=value] pairs with keys
    [site] (required, must be registered), [kind]
    ([transient]|[crash]|[kill], default [crash]), [after] (default 1),
    [times] (default 1, [0] = unlimited). Example:
    ["site=solve,kind=crash,after=2"]. *)

val arm : plan -> unit
(** Arm [plan], replacing any previous one and resetting pass counters.
    @raise Invalid_argument if [plan.site] is not registered. *)

val disarm : unit -> unit
(** Remove the armed plan. Subsequent {!tap} calls are free again. *)

val armed : unit -> plan option

val tap : string -> unit
(** [tap site] marks one pass through [site]. No-op unless a plan for
    [site] is armed and its trigger window covers this pass, in which
    case it raises ({!Injected} / {!Crashed}) or exits ([Kill]). *)

val fired : unit -> int
(** How many times the current plan has fired since {!arm}. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] armed and always disarms,
    including when [f] raises. *)

val init_from_env : unit -> (unit, string) result
(** Arm a plan from [HYDRA_CHAOS] when set and non-empty. [Error]
    carries the parse error of a malformed spec, for the caller to
    report (the CLI exits 1). *)

val kill_exit_code : int
(** Exit code used by [Kill] (and by the CLI for {!Crashed}): 70. *)
