(** Content-addressed on-disk store for solver results.

    A cache maps fingerprint keys (hex digests of a canonical problem
    rendering, computed by the caller) to opaque string payloads. The
    design contract mirrors the pipeline's degradation ladder:

    - {b corruption-tolerant}: a truncated, garbled or concurrently
      half-written entry is a miss, never an exception. [find] validates
      a per-entry magic line, format version, key echo and payload
      digest before returning anything.
    - {b atomic}: [store] writes to a temporary file in the cache
      directory and renames it into place, so concurrent writers (e.g.
      pooled view solves) can only ever race to publish identical bytes.
    - {b versioned}: entries carry a format version; bumping
      {!format_version} invalidates every existing entry wholesale.

    Keys are content hashes, so invalidation is by construction: any
    input change produces a different key and therefore a miss.

    One store, two policies. The {e shared} cache is an optimization
    that any number of runs may point at. A {e durable} store is the
    run-scoped state behind [--state-dir]: every store is on disk
    before it returns, so an interrupted run resumes from it. *)

val format_version : int

type policy =
  | Shared
      (** writes are atomic but not fsynced; reads and writes are the
          [cache.read] / [cache.write] chaos sites; traffic is counted on
          the global [cache.hit] / [cache.miss] / [cache.store] obs
          counters *)
  | Durable
      (** writes are fsynced (entry and directory,
          [Durable_io.write_atomic ~fsync:true]); only writes are a chaos
          site, named [journal.append]; traffic is counted on {!stats}
          alone *)

type t

val create : dir:string -> t
(** [create_with Shared]. *)

val create_with : policy -> dir:string -> t
(** Open (creating directories as needed) a store rooted at [dir].
    @raise Sys_error when the directory cannot be created. *)

val dir : t -> string

val find_map : t -> key:string -> (string -> 'a option) -> 'a option
(** [find_map t ~key decode] is [decode payload] for the payload stored
    under [key]. Absent, corrupt and version-mismatched entries, and
    payloads [decode] rejects, are misses. A hit is counted only when
    [decode] accepts the payload, so hits equal the lookups that were
    actually served. *)

val find : t -> key:string -> string option
(** [find_map t ~key Option.some]. *)

val store : t -> key:string -> string -> unit
(** Persist [payload] under [key] atomically (and durably under
    [Durable]). Best-effort: an I/O failure (disk full, permissions) is
    swallowed — the store degrades to a smaller one, it never fails the
    solve that produced the payload. *)

val find_hint : t -> key:string -> string option
(** Like {!find} but for advisory payloads (warm-start bases): skips the
    instance hit/miss counters — which report solve replays and must not
    depend on the solve mode — and the chaos taps. Traffic is counted on
    the [cache.warm_hit] / [cache.warm_miss] obs counters instead. *)

val store_hint : t -> key:string -> string -> unit
(** Advisory counterpart of {!store}: same atomic on-disk format, but
    off the instance store counter and the chaos taps. Best-effort. *)

type stats = { hits : int; misses : int; stores : int }

val stats : t -> stats
(** This instance's counters (domain-safe; pooled solves share one [t]).
    The global [cache.hit] / [cache.miss] / [cache.store] Obs counters
    aggregate the same events across all instances. *)

val entry_path : t -> key:string -> string
(** Where [key]'s entry lives on disk. Exposed for corruption tests. *)

(** {2 Scrub}

    [find] deliberately treats corrupt and version-mismatched entries
    as silent misses, so without maintenance they would stay on disk —
    and stay misses — forever. [scrub] is that maintenance pass. *)

type bad_entry = {
  be_file : string;  (** basename within the cache directory *)
  be_problem : string;  (** human-readable diagnosis *)
}

type scrub_report = {
  sr_total : int;  (** [.entry] files examined *)
  sr_ok : int;
  sr_bad : bad_entry list;  (** corrupt entries, sorted by file name *)
  sr_stale : bad_entry list;
      (** well-formed entries written under another {!format_version} —
          the expected debris of an upgrade, not damage; sorted by file
          name *)
  sr_orphans : bad_entry list;
      (** temp files a kill left between creation and rename
          ([Durable_io.is_temp_file]) — debris, not damage, and not
          counted in [sr_total]; sorted by file name *)
  sr_deleted : int;
}

val scrub : ?delete:bool -> dir:string -> unit -> scrub_report
(** Walk every [.entry] file under [dir], re-validating magic, format
    version, key echo, payload length and digest. Entries whose only
    problem is a foreign format version are reported as stale
    ([sr_stale]); everything else lands in [sr_bad]. Orphan temp files
    are reported in [sr_orphans]; other files are ignored. [?delete]
    (default [false]) removes all three kinds. @raise Sys_error when
    [dir] is not a directory. *)
