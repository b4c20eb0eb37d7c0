(** End-to-end differential fuzz battery over synthesized workloads.

    Per workload the battery runs the full vendor pipeline several ways
    and asserts the standing invariants as one ladder (first failure
    wins, names are stable — they key shrinking and the CLI output):

    - ["spec-roundtrip"]: the emitted CC spec parses back and re-emits
      byte-identically;
    - ["regenerate-raises"]: [Pipeline.regenerate] completed without an
      exception (its documented contract);
    - ["summary-roundtrip"]: the summary survives save → load → save
      byte-identically;
    - ["jobs-determinism"]: a [--jobs 2] run produces the same summary
      bytes as the sequential run;
    - ["solve-mode-differential"]: rerunning with the {e other} LP
      engine ([Exact] vs [Float_first], whichever the battery was not
      given) produces the same summary bytes — the float-first shadow
      simplex plus exact verification must be indistinguishable from
      the all-exact reference;
    - ["cache-replay"]: a cache-warm rerun replays the cold run's
      summary bytes, every stored view at tier [Cache];
    - ["journal-resume"]: rerunning with the same [--state-dir] replays
      the recorded run byte-identically, every recorded view at tier
      [State];
    - ["audit-reconcile"]: audited validation over the dynamically
      generated database reconciles with the audit trail's roll-up;
    - ["exactness"]: when every view is {!Hydra_core.Pipeline.Exact},
      no grouping residuals remain and integrity repair added no
      tuples (repair additions legitimately perturb counts — Fig. 11),
      every CC validates with zero error (measured CC systems are
      satisfiable by construction).

    Failures shrink by greedy CC removal — preserving the {e original}
    invariant name, so minimization cannot wander onto a different bug
    — into a minimal reproducer spec replayable with
    [hydra fuzz --replay]. *)

open Hydra_rel
open Hydra_workload

val with_tmp_root : prefix:string -> (string -> 'a) -> 'a
(** Run [f] against a fresh scratch directory under the system temp dir
    (named from [prefix] and the pid), removing it afterwards — the
    [tmp_root] the entry points below expect. *)

val battery :
  ?solve_mode:Hydra_lp.Simplex.mode ->
  dir:string ->
  Schema.t ->
  Cc.t list ->
  (string, string * string) result
(** Run the invariant ladder in scratch directory [dir] (created, then
    removed). [Ok digest] is the md5 of the summary bytes;
    [Error (invariant, detail)] names the first failed invariant. Never
    raises for pipeline-level faults; [dir] I/O errors do escape.
    [solve_mode] (default [Exact]) is the engine for the base run; the
    differential rung always exercises the other engine, so both are
    covered either way. *)

val shrink :
  ?solve_mode:Hydra_lp.Simplex.mode ->
  dir:string ->
  invariant:string ->
  Schema.t ->
  Cc.t list ->
  Cc.t list
(** Greedily drop CCs while {!battery} still fails with [invariant]
    (re-run in fresh subdirectories of [dir]); returns a 1-minimal CC
    list — removing any single remaining CC makes the failure vanish
    or change identity. *)

type failure = {
  f_invariant : string;
  f_detail : string;  (** deterministic one-liner *)
  f_spec : string;
      (** minimal reproducer spec text (empty when synthesis itself
          failed — there is no constraint system to shrink) *)
}

type verdict =
  | Passed of { digest : string; desc : string }
      (** {!Synth.digest} / {!Synth.describe} of the workload *)
  | Failed of failure

val run_workload :
  ?config:Synth.config ->
  ?solve_mode:Hydra_lp.Simplex.mode ->
  tmp_root:string ->
  seed:int ->
  unit ->
  verdict
(** Synthesize the workload for [seed], run {!battery}, shrink on
    failure. Scratch state lives under [tmp_root] and is removed. *)

type sweep = {
  sw_passed : int;
  sw_failures : (int * failure) list;
      (** (workload index, failure), in index order *)
}

val run_sweep :
  ?config:Synth.config ->
  ?solve_mode:Hydra_lp.Simplex.mode ->
  ?out_dir:string ->
  tmp_root:string ->
  seed:int ->
  count:int ->
  emit:(string -> unit) ->
  unit ->
  sweep
(** Fuzz [count] workloads; workload [i] uses seed [Rng.mix2 seed i], so
    its identity is independent of [count]. [emit] receives one
    deterministic line per workload (index, derived seed, shape/digest
    or failure). With [out_dir], each failure's minimal reproducer is
    written to [out_dir/fuzz-<seed>-w<index>.hydra] and the emitted
    line names that file. *)

val replay :
  ?solve_mode:Hydra_lp.Simplex.mode ->
  tmp_root:string ->
  path:string ->
  unit ->
  (string, failure) result
(** Parse a reproducer spec and run {!battery} on it: [Ok digest] when
    the invariants now hold, [Error] otherwise (no re-shrink — the spec
    on disk is already minimal). [Cc_parser.Parse_error] escapes to the
    caller, as for any hand-written spec. *)
