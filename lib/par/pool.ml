(* Fixed domain pool with deterministic result placement.

   One mutex guards the batch queue and all batch bookkeeping; workers
   claim the next unclaimed index of the head batch under that lock and
   run the task outside it. Task granularity in HYDRA (a view solve, a
   row-range shard, a query's AQP) is orders of magnitude above the cost
   of an uncontended lock, so a single lock keeps the scheduler trivially
   correct without measurable overhead.

   Determinism: every index is claimed exactly once and its result is
   written to its own slot, so [map_range] output is independent of the
   schedule. Only per-task side effects (obs metrics, which accumulate
   per-domain and merge commutatively) see the interleaving. *)

module Chaos = Hydra_chaos.Chaos

type failure = {
  f_index : int;
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
}

exception Batch_failure of failure list

let () =
  Printexc.register_printer (function
    | Batch_failure fs ->
        Some
          (Printf.sprintf "Pool.Batch_failure [%s]"
             (String.concat "; "
                (List.map
                   (fun f ->
                     Printf.sprintf "%d: %s" f.f_index
                       (Printexc.to_string f.f_exn))
                   fs)))
    | _ -> None)

type batch = {
  bn : int;
  brun : int -> unit;  (* wrapped task: never raises *)
  mutable bnext : int;  (* next unclaimed index; under the pool mutex *)
  mutable bdone : int;  (* completed tasks; under the pool mutex *)
}

type t = {
  width : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work : Condition.t;  (* a batch arrived / the pool is closing *)
  finished : Condition.t;  (* some batch completed its last task *)
  queue : batch Queue.t;
  mutable closing : bool;
}

(* set in worker domains so nested submissions run inline instead of
   deadlocking on their own pool *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () =
  match Sys.getenv_opt "HYDRA_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf
               "environment variable 'HYDRA_JOBS': expected an integer >= 1, \
                got %S"
               s))
  | None -> Domain.recommended_domain_count ()

let jobs t = t.width

(* drop fully-claimed batches from the head of the queue. Invariant
   (restored after every claim, under the pool mutex): the head of the
   queue always has unclaimed work. A batch can be exhausted while NOT
   at the head — a nested batch pushed behind a still-draining outer one
   and drained directly by its submitter — so a claim-time head-only pop
   is not enough: the stale batch would sit at the head forever once its
   predecessors drain, and workers would spin on it without ever
   re-checking [closing]. The purge loop pops every exhausted prefix. *)
let purge t =
  let exhausted (b : batch) = b.bnext >= b.bn in
  while (not (Queue.is_empty t.queue)) && exhausted (Queue.peek t.queue) do
    ignore (Queue.pop t.queue)
  done

(* claim the next index of [b] (which need not be at the head) *)
let try_claim t b =
  let i = b.bnext in
  if i >= b.bn then None
  else begin
    b.bnext <- i + 1;
    purge t;
    Some i
  end

let complete t b =
  Mutex.lock t.m;
  b.bdone <- b.bdone + 1;
  if b.bdone = b.bn then Condition.broadcast t.finished;
  Mutex.unlock t.m

(* run tasks of [b] until none are left unclaimed *)
let help t b =
  let rec loop () =
    Mutex.lock t.m;
    let claimed = try_claim t b in
    Mutex.unlock t.m;
    match claimed with
    | None -> ()
    | Some i ->
        b.brun i;
        complete t b;
        loop ()
  in
  loop ()

let worker t () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.closing do
      Condition.wait t.work t.m
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.m (* closing: exit *)
    else begin
      let b = Queue.peek t.queue in
      let claimed = try_claim t b in
      Mutex.unlock t.m;
      (match claimed with
      | None -> ()
      | Some i ->
          b.brun i;
          complete t b);
      loop ()
    end
  in
  loop ()

let create width =
  if width < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      width;
      workers = [];
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      closing = false;
    }
  in
  if width > 1 then
    t.workers <- List.init (width - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.closing <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool width f =
  let t = create width in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let guarded f i =
  try
    Chaos.tap "pool.task";
    Ok (f i)
  with e ->
    Error { f_index = i; f_exn = e; f_backtrace = Printexc.get_raw_backtrace () }

let map_range_result (type a) t n (f : int -> a) :
    (a, failure) result array =
  if n < 0 then invalid_arg "Pool.map_range_result: negative range";
  if n = 0 then [||]
  else if t.width <= 1 || n = 1 || Domain.DLS.get in_worker then
    (* inline: same claim order (ascending), no domains involved. Every
       index still runs — a failure settles into its slot instead of
       aborting the batch, matching the parallel path. *)
    Array.init n (guarded f)
  else begin
    let results : (a, failure) result option array = Array.make n None in
    let run i = results.(i) <- Some (guarded f i) in
    let b = { bn = n; brun = run; bnext = 0; bdone = 0 } in
    Mutex.lock t.m;
    Queue.push b t.queue;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (* the caller is one of the [width] workers for this batch *)
    help t b;
    Mutex.lock t.m;
    while b.bdone < b.bn do
      Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m;
    Array.map
      (function Some r -> r | None -> assert false (* settled above *))
      results
  end

let raise_crash results =
  (* a simulated crash ends the run as itself — it must reach the
     harness (or the CLI's exit-70 mapping) unwrapped, like a real kill
     would. Only after every slot settled, so an exception never leaves
     half a batch running. *)
  Array.iter
    (function
      | Error { f_exn = Chaos.Crashed _ as e; f_backtrace; _ } ->
          Printexc.raise_with_backtrace e f_backtrace
      | _ -> ())
    results

let map_range t n f =
  let results = map_range_result t n f in
  raise_crash results;
  let failed = function Error f -> Some f | Ok _ -> None in
  match List.filter_map failed (Array.to_list results) with
  | [] -> Array.map Result.get_ok results
  | fs -> raise (Batch_failure fs)

let iter_range t n f = ignore (map_range t n f)

let map_list t f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_range t (Array.length arr) (fun i -> f arr.(i)))
