(* Background progress ticker. One spawned domain sleeps in small
   slices (so stop is responsive) and on each period boundary renders a
   snapshot to the Prometheus file and the heartbeat channel. The
   domain never writes a metric — it must not perturb the run it
   watches. *)

type t = {
  p_stop : bool Atomic.t;
  p_dom : unit Domain.t;
  p_tick : unit -> unit;
  p_stopped : bool Atomic.t;
}

let counter_of snap name =
  match List.assoc_opt name (Obs.snapshot_counters snap) with
  | Some v -> v
  | None -> 0

let gauge_of snap name =
  match List.assoc_opt name (Obs.snapshot_gauges snap) with
  | Some v -> v
  | None -> 0.0

let heartbeat_line ?elapsed_s snap =
  let c = counter_of snap in
  let finished = c "pipeline.progress.done_views"
  and total = int_of_float (gauge_of snap "pipeline.progress.total_views") in
  let base =
    Printf.sprintf
      "[hydra] views %d/%d exact %d relaxed %d fallback %d | cache hits %d | \
       retries %d"
      finished total (c "pipeline.views.exact") (c "pipeline.views.relaxed")
      (c "pipeline.views.fallback") (c "cache.hit")
      (c "par.supervisor.retries")
  in
  (* Rate and ETA are only estimable mid-run: some views done (so the
     rate is grounded) but not all (so an ETA means anything), with
     elapsed wall time to divide by. *)
  match elapsed_s with
  | Some e when e > 0.0 && finished > 0 && finished < total ->
      let rate = float_of_int finished /. e in
      Printf.sprintf "%s | %.2f views/s | eta %.1fs" base rate
        (float_of_int (total - finished) /. rate)
  | _ -> base

let start ?heartbeat ?prom_out ~period_s () =
  let period_s = Float.max 0.01 period_s in
  let started = Mclock.now () in
  let tick () =
    let snap = Obs.snapshot () in
    (match prom_out with
    | Some path -> (
        try Prom.write path snap
        with Sys_error _ | Unix.Unix_error _ -> ())
    | None -> ());
    match heartbeat with
    | Some oc ->
        let elapsed_s = Mclock.now () -. started in
        output_string oc (heartbeat_line ~elapsed_s snap ^ "\n");
        flush oc
    | None -> ()
  in
  let stop_flag = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        let slice = Float.min 0.05 (Float.max 0.005 (period_s /. 4.0)) in
        let rec loop elapsed =
          if not (Atomic.get stop_flag) then begin
            Unix.sleepf slice;
            let elapsed = elapsed +. slice in
            if elapsed >= period_s then begin
              tick ();
              loop 0.0
            end
            else loop elapsed
          end
        in
        loop 0.0)
  in
  { p_stop = stop_flag; p_dom = dom; p_tick = tick;
    p_stopped = Atomic.make false }

let stop t =
  if not (Atomic.exchange t.p_stopped true) then begin
    Atomic.set t.p_stop true;
    Domain.join t.p_dom;
    t.p_tick ()
  end

let period_of_string v =
  match float_of_string_opt v with
  | Some p when p > 0.0 && Float.is_finite p -> Ok p
  | _ ->
      Error (Printf.sprintf "expected a positive number of seconds, got %S" v)
