(* Retries over Pool batches.

   A task is a pure function of its index, so re-running a failed one
   needs no tuning: an index whose task raised [Chaos.Injected] is
   re-run at once in a fresh (smaller) batch over the failed indices,
   at most [max_retries] times. A run with zero failures costs exactly
   one Pool batch, and a task's result lands in its own slot whichever
   attempt produced it. *)

module Chaos = Hydra_chaos.Chaos
module Obs = Hydra_obs.Obs

let max_retries = 2
let m_retries = Obs.counter "par.supervisor.retries"
let m_recovered = Obs.counter "par.supervisor.recovered"
let m_gave_up = Obs.counter "par.supervisor.gave_up"

let map_range pool n f =
  let results = Pool.map_range_result pool n f in
  let attempts = Array.make n 1 in
  Pool.raise_crash results;
  for attempt = 2 to 1 + max_retries do
    let failed =
      Array.to_seq results
      |> Seq.filter_map (function
           | Error ({ Pool.f_exn = Chaos.Injected _; _ } as e) -> Some e
           | _ -> None)
      |> Array.of_seq
    in
    Array.iter
      (fun (e : Pool.failure) ->
        Obs.incr m_retries 1;
        Obs.event ~level:Obs.Warn "par.task_retry"
          ~attrs:
            [
              ("index", Obs.Int e.f_index);
              ("attempt", Obs.Int attempt);
              ("error", Obs.Str (Printexc.to_string e.f_exn));
              ("outcome", Obs.Str "retrying");
            ])
      failed;
    let index j = failed.(j).Pool.f_index in
    Pool.map_range_result pool (Array.length failed) (fun j -> f (index j))
    |> Array.iteri (fun j r ->
           let i = index j in
           attempts.(i) <- attempt;
           results.(i) <-
             (match r with
             | Ok v ->
                 Obs.incr m_recovered 1;
                 Ok v
             | Error e -> Error { e with Pool.f_index = i }));
    Pool.raise_crash results
  done;
  Array.iter
    (function
      | Error e ->
          Obs.incr m_gave_up 1;
          Obs.event ~level:Obs.Error "par.task_failed"
            ~attrs:
              [
                ("index", Obs.Int e.Pool.f_index);
                ("attempts", Obs.Int attempts.(e.Pool.f_index));
                ("error", Obs.Str (Printexc.to_string e.Pool.f_exn));
              ]
      | Ok _ -> ())
    results;
  (results, attempts)
