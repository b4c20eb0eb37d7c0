let sites =
  [
    "solve";
    "pool.task";
    "cache.read";
    "cache.write";
    "journal.append";
    "summary.save";
    "materialize.shard";
  ]

type kind = Transient | Crash | Kill

type plan = { site : string; kind : kind; after : int; times : int }

exception Injected of string
exception Crashed of string

let is_injected = function Injected _ | Crashed _ -> true | _ -> false

let kill_exit_code = 70

(* [enabled] is the only thing the hot path reads; everything else is
   consulted after that read says a plan exists. Counters are atomics
   because taps fire concurrently from pool workers. *)
let enabled = ref false
let current : plan option ref = ref None
let passes = Atomic.make 0
let shots = Atomic.make 0

let parse spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_pair acc pair =
    match acc with
    | Error _ -> acc
    | Ok p -> (
        match String.index_opt pair '=' with
        | None -> fail "chaos: expected key=value, got %S" pair
        | Some eq -> (
            let k = String.trim (String.sub pair 0 eq) in
            let v =
              String.trim
                (String.sub pair (eq + 1) (String.length pair - eq - 1))
            in
            let pos_int name =
              match int_of_string_opt v with
              | Some n when n >= 0 -> Ok n
              | _ -> fail "chaos: %s must be a non-negative integer, got %S"
                       name v
            in
            match k with
            | "site" ->
                if List.mem v sites then Ok { p with site = v }
                else
                  fail "chaos: unknown site %S (known: %s)" v
                    (String.concat ", " sites)
            | "kind" -> (
                match v with
                | "transient" -> Ok { p with kind = Transient }
                | "crash" -> Ok { p with kind = Crash }
                | "kill" -> Ok { p with kind = Kill }
                | _ ->
                    fail "chaos: kind must be transient|crash|kill, got %S" v)
            | "after" -> (
                match pos_int "after" with
                | Ok n when n >= 1 -> Ok { p with after = n }
                | Ok _ -> fail "chaos: after must be >= 1"
                | Error e -> Error e)
            | "times" -> (
                match pos_int "times" with
                | Ok n -> Ok { p with times = n }
                | Error e -> Error e)
            | _ -> fail "chaos: unknown key %S" k))
  in
  let default = { site = ""; kind = Crash; after = 1; times = 1 } in
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match List.fold_left parse_pair (Ok default) parts with
  | Ok p when p.site = "" -> fail "chaos: missing site=<name>"
  | r -> r

let arm p =
  if not (List.mem p.site sites) then
    invalid_arg (Printf.sprintf "Chaos.arm: unknown site %S" p.site);
  current := Some p;
  Atomic.set passes 0;
  Atomic.set shots 0;
  enabled := true

let disarm () =
  enabled := false;
  current := None

let armed () = !current
let fired () = Atomic.get shots

let fire site p =
  let pass = 1 + Atomic.fetch_and_add passes 1 in
  let in_window =
    pass >= p.after && (p.times = 0 || pass < p.after + p.times)
  in
  if in_window then begin
    ignore (Atomic.fetch_and_add shots 1);
    match p.kind with
    | Transient -> raise (Injected site)
    | Crash -> raise (Crashed site)
    | Kill ->
        Printf.eprintf "hydra: chaos kill at site %s (pass %d)\n%!" site pass;
        Unix._exit kill_exit_code
  end

let tap site =
  if !enabled then
    match !current with Some p when p.site = site -> fire site p | _ -> ()

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

let init_from_env () =
  match Sys.getenv_opt "HYDRA_CHAOS" with
  | Some s when String.trim s <> "" ->
      Result.map_error (( ^ ) "HYDRA_CHAOS: ") (Result.map arm (parse s))
  | _ -> Ok ()
