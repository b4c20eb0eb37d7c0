(* Content-addressed entry store. On-disk layout: one file per key,
   <dir>/<key>.entry, holding a three-line header followed by the raw
   payload bytes:

     hydra-cache <format_version> <key>
     payload <byte length> <md5 hex of payload>
     <payload...>

   Reads re-derive every header field and the payload digest; any
   disagreement (or any exception at all) is a miss. Writes go through
   Durable_io.write_atomic (unique temp file in the same directory +
   rename), which POSIX makes atomic — a reader sees either no entry or
   a complete one. The [Durable] policy adds the fsyncs that make a
   store outlive a crash; the format is the same under both policies. *)

module Obs = Hydra_obs.Obs
module Chaos = Hydra_chaos.Chaos
module Durable_io = Hydra_durable.Durable_io

(* 2: the Formulate payload grew a terminal-basis line for warm-started
   verification. Entries written by older builds read as clean misses
   (and as "stale", not corrupt, under scrub). *)
let format_version = 2

let m_hit = Obs.counter "cache.hit"
let m_miss = Obs.counter "cache.miss"
let m_store = Obs.counter "cache.store"
let m_warm_hit = Obs.counter "cache.warm_hit"
let m_warm_miss = Obs.counter "cache.warm_miss"

type policy = Shared | Durable

type t = {
  cache_dir : string;
  policy : policy;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_stores : int Atomic.t;
}

type stats = { hits : int; misses : int; stores : int }

let create_with policy ~dir =
  (try Durable_io.mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise
       (Sys_error
          (Printf.sprintf "cache directory %s: %s" dir (Unix.error_message e))));
  {
    cache_dir = dir;
    policy;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_stores = Atomic.make 0;
  }

let create ~dir = create_with Shared ~dir

(* the global cache.* counters report shared-cache traffic only: a
   run-scoped store's replays are reported as such by its owner *)
let count t n m =
  Atomic.incr n;
  if t.policy = Shared then Obs.incr m 1

let dir t = t.cache_dir

(* keys are caller-computed hex digests; refuse anything that could
   escape the cache directory or collide with temp files *)
let valid_key key =
  key <> ""
  && String.for_all
       (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
       key

let entry_path t ~key =
  Filename.concat t.cache_dir
    ((if valid_key key then key else Digest.to_hex (Digest.string key))
    ^ ".entry")

(* [Ok payload] or a classified [Error]: [`Stale] is a well-formed entry
   written under another format version (an expected artifact of
   upgrades — deletable housekeeping, not damage); [`Corrupt] is
   everything else. Callers that only care about hit-or-miss collapse
   the distinction, scrub reports it. *)
let parse_entry path ~key =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header = input_line ic in
      match String.split_on_char ' ' header with
      | [ "hydra-cache"; version; k ] -> (
          match int_of_string_opt version with
          | Some v when v <> format_version ->
              Error
                (`Stale
                  (Printf.sprintf "format version %d (this build writes %d)"
                     v format_version))
          | None ->
              Error
                (`Corrupt
                  (Printf.sprintf "format version %s is not an integer"
                     version))
          | Some _ ->
          if (match key with Some key -> k <> key | None -> false) then
            Error (`Corrupt (Printf.sprintf "key echo %s does not match" k))
          else
            let meta = input_line ic in
            match String.split_on_char ' ' meta with
            | [ "payload"; len; digest ] -> (
                match int_of_string_opt len with
                | Some len when len >= 0 -> (
                    match really_input_string ic len with
                    | payload ->
                        (* trailing bytes mean a corrupt or foreign file *)
                        if pos_in ic <> in_channel_length ic then
                          Error (`Corrupt "trailing bytes after payload")
                        else if
                          Digest.to_hex (Digest.string payload) <> digest
                        then Error (`Corrupt "payload digest mismatch")
                        else Ok payload
                    | exception End_of_file ->
                        Error (`Corrupt "truncated payload"))
                | _ -> Error (`Corrupt "malformed payload length"))
            | _ -> Error (`Corrupt "malformed payload header"))
      | _ -> Error (`Corrupt "bad magic line"))

(* the payload under [key], or [None] for an absent entry and on any
   read failure — truncation, garbage, a vanished file: the cache never
   propagates its own faults to the solve *)
let read t ~key =
  let path = entry_path t ~key in
  if not (Sys.file_exists path) then None
  else
    try Result.to_option (parse_entry path ~key:(Some key))
    with e when not (Chaos.is_injected e) -> None

let find_map t ~key decode =
  (* a run-scoped store is read once per view whatever the plan, so
     only the shared cache's reads are a chaos site *)
  if t.policy = Shared then Chaos.tap "cache.read";
  let result = Option.bind (read t ~key) decode in
  (match result with
  | Some _ -> count t t.n_hits m_hit
  | None -> count t t.n_misses m_miss);
  result

let find t ~key = find_map t ~key Option.some

let write_entry ~fsync path ~key payload =
  Durable_io.write_atomic ~fsync path (fun buf ->
      Buffer.add_string buf
        (Printf.sprintf "hydra-cache %d %s\n" format_version key);
      Buffer.add_string buf
        (Printf.sprintf "payload %d %s\n" (String.length payload)
           (Digest.to_hex (Digest.string payload)));
      Buffer.add_string buf payload)

let store t ~key payload =
  try
    (* a durable store keeps the site name of the write-ahead journal it
       replaced, so existing chaos plans still aim at it *)
    Chaos.tap
      (match t.policy with
      | Shared -> "cache.write"
      | Durable -> "journal.append");
    write_entry ~fsync:(t.policy = Durable) (entry_path t ~key) ~key payload;
    count t t.n_stores m_store
  with e when not (Chaos.is_injected e) ->
    () (* best-effort: a failed store only shrinks the cache *)

(* Hints (warm-start bases) are pure optimizations: reads and writes
   stay off the instance hit/miss/store counters (which report solve
   replays to the user and must not depend on the solve mode) and off
   the chaos taps (so enabling hints cannot shift a seeded injection
   plan). Their traffic is observable on cache.warm_hit/warm_miss. *)
let find_hint t ~key =
  let result = read t ~key in
  Obs.incr (if result = None then m_warm_miss else m_warm_hit) 1;
  result

let store_hint t ~key payload =
  try write_entry ~fsync:false (entry_path t ~key) ~key payload with _ -> ()

let stats t =
  {
    hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    stores = Atomic.get t.n_stores;
  }

(* ---- scrub ---- *)

type bad_entry = { be_file : string; be_problem : string }

type scrub_report = {
  sr_total : int;
  sr_ok : int;
  sr_bad : bad_entry list;
  sr_stale : bad_entry list;
  sr_orphans : bad_entry list;
  sr_deleted : int;
}

let scrub ?(delete = false) ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "cache directory %s: not a directory" dir));
  let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  let total = ref 0 and ok = ref 0 and deleted = ref 0 in
  let bad = ref [] and stale = ref [] and orphans = ref [] in
  let flag list file be_problem =
    list := { be_file = file; be_problem } :: !list;
    if delete then begin
      (try Sys.remove (Filename.concat dir file) with Sys_error _ -> ());
      incr deleted
    end
  in
  List.iter
    (fun file ->
      if Durable_io.is_temp_file file then
        flag orphans file "temp file of an interrupted write"
      else if Filename.check_suffix file ".entry" then begin
        incr total;
        let stem = Filename.chop_suffix file ".entry" in
        let key = if valid_key stem then Some stem else None in
        match parse_entry (Filename.concat dir file) ~key with
        | Ok _ when key = None -> flag bad file "file name is not a valid key"
        | Ok _ -> incr ok
        | Error (`Stale p) -> flag stale file p
        | Error (`Corrupt p) -> flag bad file p
        | exception e when not (Chaos.is_injected e) ->
            flag bad file (Printexc.to_string e)
      end)
    files;
  { sr_total = !total; sr_ok = !ok; sr_bad = List.rev !bad;
    sr_stale = List.rev !stale; sr_orphans = List.rev !orphans;
    sr_deleted = !deleted }
