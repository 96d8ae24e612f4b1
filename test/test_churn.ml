(* Tests for the churn subsystem: directory epochs and incarnations,
   session behaviour against busy / draining / departed relays, the
   packet-level churn driver, the round-level churn schedule in the
   network experiment, and the churn oracles in the check harness
   (including the guard-flip acceptance test). *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* A tiny packet-level world: [relays] all-position relays on a star,
   plus a client and a server endpoint. *)

let make_world ?(relays = 5) () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  List.iter (Workload.Tor_net.add_relay b)
    (List.init relays (fun i ->
         {
           Workload.Relay_gen.nickname = Printf.sprintf "relay%d" i;
           bandwidth = Engine.Units.Rate.mbit 6;
           latency = Engine.Time.ms 10;
           flags =
             [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
               Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ];
         }));
  let endpoint name =
    Workload.Tor_net.add_endpoint b ~name ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let client = endpoint "client" in
  let server = endpoint "server" in
  let net = Workload.Tor_net.finalize b in
  (sim, net, client, server)

let relay_nodes net =
  List.map
    (fun (r : Tor_model.Relay_info.t) -> r.node)
    (Tor_model.Directory.relays (Workload.Tor_net.directory net))

(* ------------------------------------------------------------------ *)
(* Directory epochs and incarnations *)

let test_epoch_snapshot_lags_live_population () =
  let _sim, net, _, _ = make_world ~relays:4 () in
  let dir = Workload.Tor_net.directory net in
  let victim = List.hd (relay_nodes net) in
  Alcotest.(check int) "epoch starts at 0" 0 (Tor_model.Directory.epoch dir);
  Alcotest.(check int) "bootstrap view has all" 4
    (List.length (Tor_model.Directory.snapshot_relays dir));
  (* Before any epoch: live view doubles as snapshot, and a down relay
     is still listed — status never filters the selectable view. *)
  Tor_model.Directory.mark_down dir victim;
  Alcotest.(check int) "down relay still in pre-epoch view" 4
    (List.length (Tor_model.Directory.snapshot_relays dir));
  Tor_model.Directory.advance_epoch dir;
  Alcotest.(check int) "epoch advanced" 1 (Tor_model.Directory.epoch dir);
  Alcotest.(check int) "down relay dropped at the boundary" 3
    (List.length (Tor_model.Directory.snapshot_relays dir));
  (* Coming back up: invisible until the next boundary. *)
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "restart invisible until next epoch" 3
    (List.length (Tor_model.Directory.snapshot_relays dir));
  Tor_model.Directory.advance_epoch dir;
  Alcotest.(check int) "restart visible after the boundary" 4
    (List.length (Tor_model.Directory.snapshot_relays dir))

let test_draining_stays_in_snapshot () =
  let _sim, net, _, _ = make_world ~relays:4 () in
  let dir = Workload.Tor_net.directory net in
  let victim = List.hd (relay_nodes net) in
  Tor_model.Directory.mark_draining dir victim;
  Tor_model.Directory.advance_epoch dir;
  (* A draining relay is still listed in the consensus. *)
  Alcotest.(check int) "draining relay still listed" 4
    (List.length (Tor_model.Directory.snapshot_relays dir));
  Tor_model.Directory.mark_down dir victim;
  Tor_model.Directory.advance_epoch dir;
  Alcotest.(check int) "gone after the drain completes" 3
    (List.length (Tor_model.Directory.snapshot_relays dir))

let test_join_waits_for_next_epoch () =
  let _sim, net, _, _ = make_world ~relays:4 () in
  let dir = Workload.Tor_net.directory net in
  Tor_model.Directory.advance_epoch dir;
  let existing = List.hd (relay_nodes net) in
  let joiner =
    Tor_model.Relay_info.make ~nickname:"joiner" ~node:existing
      ~bandwidth:(Engine.Units.Rate.mbit 6) ~latency:(Engine.Time.ms 10) ()
  in
  (* [join] is invisible until a consensus lists it; [add] (bootstrap)
     extends the standing snapshot immediately. *)
  Tor_model.Directory.join dir joiner;
  Alcotest.(check int) "join invisible pre-boundary" 4
    (List.length (Tor_model.Directory.snapshot_relays dir));
  Tor_model.Directory.advance_epoch dir;
  Alcotest.(check int) "join visible post-boundary" 5
    (List.length (Tor_model.Directory.snapshot_relays dir));
  Tor_model.Directory.add dir joiner;
  Alcotest.(check int) "add visible immediately" 6
    (List.length (Tor_model.Directory.snapshot_relays dir))

let test_incarnation_bumps_only_on_return_from_down () =
  let _sim, net, _, _ = make_world ~relays:4 () in
  let dir = Workload.Tor_net.directory net in
  let victim = List.hd (relay_nodes net) in
  Alcotest.(check int) "starts at 0" 0
    (Tor_model.Directory.incarnation dir victim);
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "up -> up: no bump" 0
    (Tor_model.Directory.incarnation dir victim);
  Tor_model.Directory.mark_draining dir victim;
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "draining -> up: no bump (never died)" 0
    (Tor_model.Directory.incarnation dir victim);
  Tor_model.Directory.mark_down dir victim;
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "down -> up: bump" 1
    (Tor_model.Directory.incarnation dir victim);
  Tor_model.Directory.mark_down dir victim;
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "each restart bumps" 2
    (Tor_model.Directory.incarnation dir victim)

(* ------------------------------------------------------------------ *)
(* Session vs busy / draining / departed relays *)

let deploy_of net ~bytes : Tor_model.Session.deploy =
 fun ~circuit ~offset ~on_complete ~on_fail ->
  let d =
    Backtap.Transfer.deploy
      ~node_of:(Workload.Tor_net.backtap_node net)
      ~circuit ~bytes ~strategy:Circuitstart.Controller.Circuit_start ~offset
      ~on_complete
      ~on_fail:(fun at -> on_fail ~failed_hop:None at)
      ()
  in
  {
    Tor_model.Session.start = (fun () -> Backtap.Transfer.start d);
    delivered = (fun () -> Backtap.Transfer.delivered_bytes d);
    teardown = (fun () -> Backtap.Transfer.teardown d);
  }

(* One session run against a world prepared by [prepare], which
   receives the net and the victim relay's node and control handle.
   Returns (session, victim). *)
let session_run ~seed ~prepare =
  let sim, net, client, server = make_world ~relays:5 () in
  let victim = List.hd (relay_nodes net) in
  prepare net victim (Workload.Tor_net.relay_ctl net victim);
  let session =
    Tor_model.Session.create
      ~sb:(Workload.Tor_net.switchboard net client)
      ~directory:(Workload.Tor_net.directory net)
      ~ids:(Workload.Tor_net.circuit_ids net)
      ~server ~rng:(Engine.Rng.create seed) ~hops:3
      ~deploy:(deploy_of net ~bytes:(Engine.Units.kib 16))
      ~max_rebuilds:8
      ~on_outcome:(fun _ -> Engine.Sim.stop sim)
      ()
  in
  Tor_model.Session.start session;
  Engine.Sim.run sim ~until:(Engine.Time.s 120);
  (session, victim)

let completed session =
  match Tor_model.Session.outcome session with
  | Some (Tor_model.Session.Completed _) -> true
  | _ -> false

(* Hunt the seed space for a run where [interesting] fires — the draw
   is deterministic per seed, so the hunt is too. *)
let hunt ~prepare ~interesting =
  let rec go seed =
    if seed > 50 then None
    else
      let session, victim = session_run ~seed ~prepare in
      if interesting session then Some (session, victim) else go (seed + 1)
  in
  go 1

let test_draining_refusal_excludes_nobody () =
  match
    hunt
      ~prepare:(fun _net _victim ctl -> Tor_model.Relay_ctl.begin_drain ctl)
      ~interesting:(fun s -> Tor_model.Session.drain_refused_builds s > 0)
  with
  | None -> Alcotest.fail "no seed routed a build through the draining relay"
  | Some (session, _) ->
      Alcotest.(check bool) "completed around the draining relay" true
        (completed session);
      (* Draining is not suspected-crashed: nothing is excluded, the
         relay stays selectable for its post-restart life. *)
      Alcotest.(check int) "nothing excluded" 0
        (List.length (Tor_model.Session.excluded session));
      Alcotest.(check int) "no busy refusals conflated" 0
        (Tor_model.Session.refused_builds session)

let test_busy_refusal_excludes_nobody () =
  match
    hunt
      ~prepare:(fun net victim _ctl ->
        Tor_model.Switchboard.set_budget
          (Workload.Tor_net.switchboard net victim)
          {
            Tor_model.Switchboard.max_circuits = Some 0;
            max_queued_bytes = None;
          })
      ~interesting:(fun s -> Tor_model.Session.refused_builds s > 0)
  with
  | None -> Alcotest.fail "no seed routed a build through the budgeted relay"
  | Some (session, _) ->
      Alcotest.(check bool) "completed around the busy relay" true
        (completed session);
      Alcotest.(check int) "nothing excluded" 0
        (List.length (Tor_model.Session.excluded session));
      Alcotest.(check int) "no drain refusals conflated" 0
        (Tor_model.Session.drain_refused_builds session)

(* One world where the victim has cleanly departed (drain begun and
   finished, directory live view knows) before the session starts: the
   pre-epoch snapshot still lists the relay, so builds race into a
   typed GONE.  Hunts the seed space until a run actually draws the
   departed relay; returns the run's world so callers can restart the
   victim afterwards. *)
let gone_run () =
  let rec go seed =
    if seed > 50 then
      Alcotest.fail "no seed routed a build through the departed relay"
    else begin
      let sim, net, client, server = make_world ~relays:5 () in
      let dir = Workload.Tor_net.directory net in
      let victim = List.hd (relay_nodes net) in
      let ctl = Workload.Tor_net.relay_ctl net victim in
      Tor_model.Relay_ctl.begin_drain ctl;
      Tor_model.Relay_ctl.finish_drain ctl;
      Tor_model.Directory.mark_down dir victim;
      let session =
        Tor_model.Session.create
          ~sb:(Workload.Tor_net.switchboard net client)
          ~directory:dir
          ~ids:(Workload.Tor_net.circuit_ids net)
          ~server ~rng:(Engine.Rng.create seed) ~hops:3
          ~deploy:(deploy_of net ~bytes:(Engine.Units.kib 16))
          ~max_rebuilds:8
          ~on_outcome:(fun _ -> Engine.Sim.stop sim)
          ()
      in
      Tor_model.Session.start session;
      Engine.Sim.run sim ~until:(Engine.Time.s 120);
      if Tor_model.Session.gone_builds session > 0 then
        (session, victim, ctl, dir)
      else go (seed + 1)
    end
  in
  go 1

let test_gone_excludes_until_restart () =
  let session, victim, _ctl, _dir = gone_run () in
  Alcotest.(check bool) "completed around the departed relay" true
    (completed session);
  (* GONE excludes — exactly the departed relay, nobody else. *)
  match Tor_model.Session.excluded session with
  | [ node ] ->
      Alcotest.(check bool) "exactly the departed relay excluded" true
        (Netsim.Node_id.equal node victim)
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected 1 exclusion, got %d" (List.length other))

let test_restart_forgives_exclusion () =
  let session, victim, ctl, dir = gone_run () in
  Alcotest.(check int) "departed relay excluded while down" 1
    (List.length (Tor_model.Session.excluded session));
  (* The relay restarts: switchboard state cleared, directory marks it
     up, incarnation bumps — and the grudge is forgiven. *)
  Tor_model.Relay_ctl.restart ctl;
  Tor_model.Directory.mark_up dir victim;
  Alcotest.(check int) "exclusion forgiven after restart" 0
    (List.length (Tor_model.Session.excluded session))

(* ------------------------------------------------------------------ *)
(* The packet-level churn driver *)

let driver_config =
  {
    Tor_model.Churn_driver.leave_rate = 0.3;
    join_rate = 0.4;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.s 1;
    epoch_period = Engine.Time.s 2;
    tick = Engine.Time.ms 500;
    min_up = 3;
    horizon = Engine.Time.s 30;
  }

let drive ~seed config =
  let _sim, net, _, _ = make_world ~relays:8 () in
  let sim = Workload.Tor_net.sim net in
  let dir = Workload.Tor_net.directory net in
  let controlled =
    List.map
      (fun (r : Tor_model.Relay_info.t) ->
        (r, Workload.Tor_net.relay_ctl net r.node))
      (Tor_model.Directory.relays dir)
  in
  let driver =
    Tor_model.Churn_driver.create ~sim ~rng:(Engine.Rng.create seed)
      ~directory:dir ~relays:controlled ~config ()
  in
  Tor_model.Churn_driver.start driver;
  Engine.Sim.run sim;
  let up =
    List.length
      (List.filter
         (fun (r : Tor_model.Relay_info.t) ->
           Tor_model.Directory.status dir r.node = Tor_model.Directory.Up)
         (Tor_model.Directory.relays dir))
  in
  ( Tor_model.Churn_driver.departs driver,
    Tor_model.Churn_driver.crashes driver,
    Tor_model.Churn_driver.drains_completed driver,
    Tor_model.Churn_driver.restarts driver,
    Tor_model.Directory.epoch dir,
    up )

let test_driver_schedule_runs_and_is_deterministic () =
  let (departs, crashes, drains, restarts, epochs, up) as a =
    drive ~seed:5 driver_config
  in
  Alcotest.(check bool)
    (Printf.sprintf "departures happen (%d)" departs)
    true (departs > 0);
  Alcotest.(check bool) "crash/drain split" true (crashes + drains <= departs);
  Alcotest.(check bool)
    (Printf.sprintf "restarts happen (%d)" restarts)
    true (restarts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "epochs advance (%d)" epochs)
    true (epochs >= 10);
  (* The min-up floor holds at the end (and, by construction, at every
     departure decision along the way). *)
  Alcotest.(check bool)
    (Printf.sprintf "min_up floor holds (%d up)" up)
    true (up >= driver_config.Tor_model.Churn_driver.min_up);
  let b = drive ~seed:5 driver_config in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = drive ~seed:6 driver_config in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_driver_validates_config () =
  let bad f =
    let _sim, net, _, _ = make_world ~relays:4 () in
    let sim = Workload.Tor_net.sim net in
    match
      Tor_model.Churn_driver.create ~sim ~rng:(Engine.Rng.create 1)
        ~directory:(Workload.Tor_net.directory net)
        ~relays:[] ~config:(f driver_config) ()
    with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative rate rejected" true
    (bad (fun c -> { c with Tor_model.Churn_driver.leave_rate = -0.1 }));
  Alcotest.(check bool) "crash fraction > 1 rejected" true
    (bad (fun c -> { c with Tor_model.Churn_driver.crash_fraction = 1.5 }));
  Alcotest.(check bool) "zero tick rejected" true
    (bad (fun c -> { c with Tor_model.Churn_driver.tick = Engine.Time.zero }))

(* ------------------------------------------------------------------ *)
(* Round-level churn in the network experiment *)

let churny_config =
  {
    Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 30;
    slots = 120;
    target_lifetimes = 1_500;
    mean_think = Engine.Time.ms 50;
    leave_hazard = 0.05;
    join_hazard = 0.2;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.ms 1_000;
    epoch_period = Engine.Time.ms 2_000;
    churn_tick = Engine.Time.ms 250;
    spare_relays = 3;
  }

let test_network_churn_counters_live () =
  let r = Workload.Network_experiment.run ~seed:11 churny_config in
  Test_util.check_stops_at_goal churny_config r;
  Alcotest.(check bool)
    (Printf.sprintf "departures (%d)" r.churn_departs)
    true (r.churn_departs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "epochs (%d)" r.churn_epochs)
    true (r.churn_epochs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "kills (%d)" r.churn_kills)
    true (r.churn_kills > 0);
  Alcotest.(check bool)
    (Printf.sprintf "kills resumed (%d/%d)" r.resumed r.churn_kills)
    true (r.resumed > 0 && r.resumed <= r.churn_kills);
  (* The oracles' counters: a healthy run never extends through a
     departed relay and never leaves departure residue. *)
  Alcotest.(check int) "no rounds through down relays" 0 r.rounds_through_down;
  Alcotest.(check int) "no departure residue" 0 r.depart_residue;
  Alcotest.(check int) "no orphaned circuits" 0 r.orphaned_circuits;
  Alcotest.(check int) "no orphaned cells" 0 r.orphaned_cells

let test_network_zero_hazard_is_churn_free () =
  let r =
    Workload.Network_experiment.run ~seed:11
      { churny_config with leave_hazard = 0.; join_hazard = 0.; spare_relays = 0 }
  in
  Alcotest.(check int) "no departs" 0 r.churn_departs;
  Alcotest.(check int) "no epochs" 0 r.churn_epochs;
  Alcotest.(check int) "no kills" 0 r.churn_kills;
  Alcotest.(check int) "no gone draws" 0 r.gone_draws

let test_network_churn_deterministic_across_jobs () =
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Network_experiment.run_many ~jobs
        [ (11, churny_config); (12, churny_config) ])

let test_network_churn_paired_strategies () =
  let c =
    Workload.Experiment.compare
      (module Workload.Network_experiment)
      ~seed:11 churny_config
  in
  Test_util.check_stops_at_goal churny_config c.circuit_start;
  Test_util.check_stops_at_goal churny_config c.slow_start;
  (* The schedule is seeded identically per strategy run. *)
  Alcotest.(check bool) "both runs churned" true
    (c.circuit_start.churn_departs > 0 && c.slow_start.churn_departs > 0)

(* The one-line summary spells the churn clause with single spaces. *)
let test_network_pp_result_churn_clause () =
  let r = Workload.Network_experiment.run ~seed:11 churny_config in
  Alcotest.(check bool) "run churned" true (r.churn_departs > 0);
  let text = Format.asprintf "%a" Workload.Network_experiment.pp_result r in
  let clause =
    Printf.sprintf "%d restarts, %d epochs, %d kills" r.churn_restarts
      r.churn_epochs r.churn_kills
  in
  Alcotest.(check bool)
    (Printf.sprintf "%S contains %S" text clause)
    true
    (contains ~needle:clause text)

(* ------------------------------------------------------------------ *)
(* Churn scenarios in the check harness *)

let selection = Check.Oracle.all
let check sc = Check.Harness.check_scenario ~selection sc

let churn_prone =
  {
    Check.Scenario.kind = Check.Scenario.Churn;
    seed = 5;
    relays = 10;
    position = 1;
    bytes = 8 * 1024;
    loss_ppm = 0;
    burst = false;
    outage_ms = None;
    crash_ms = None;
    queue_cells = 0;
    strategy = Check.Scenario.Cs;
    bottleneck_kbps = 1000;
    fast_kbps = 2000;
    endpoint_kbps = 100_000;
    max_rebuilds = 3;
    sessions = 12;
    oload_circuits = 0;
    oload_kib = 0;
    arrival_ms = 20;
    lifet = 60;
    leave_pm = 300_000;
    join_pm = 400_000;
    crashpct = 50;
    grace_ms = 200;
    epoch_ms = 500;
    spares = 2;
    shards = 1;
  }

let test_churn_scenario_passes_clean () =
  match check churn_prone with
  | Ok _ -> ()
  | Error reason -> Alcotest.fail ("clean churn scenario failed: " ^ reason)

let test_churn_line_round_trips () =
  let line = Check.Scenario.to_string churn_prone in
  match Check.Scenario.of_string line with
  | Ok sc ->
      Alcotest.(check bool) "round trip" true
        (Check.Scenario.equal sc churn_prone)
  | Error e -> Alcotest.fail e

let test_old_lines_default_to_no_churn () =
  (* A pre-churn reproducer line: no lpm/jpm/crashpct/grace/epochms/
     spares keys.  It must parse with inert zeros. *)
  let line =
    "k=n seed=7 relays=8 pos=1 bytes=8192 loss=0 burst=0 odown=-1 oup=-1 \
     crash=-1 queue=0 strat=cs bn=1000 fast=2000 ep=100000 rebuilds=3 sess=6 \
     ocirc=0 okib=0 arr=20 lifet=30"
  in
  match Check.Scenario.of_string line with
  | Ok sc ->
      Alcotest.(check int) "leave_pm defaults 0" 0 sc.Check.Scenario.leave_pm;
      Alcotest.(check int) "spares default 0" 0 sc.Check.Scenario.spares
  | Error e -> Alcotest.fail e

let test_kind_of_string () =
  Alcotest.(check bool) "churn accepted" true
    (Check.Scenario.kind_of_string "churn" = Some Check.Scenario.Churn);
  Alcotest.(check bool) "code accepted" true
    (Check.Scenario.kind_of_string "c" = Some Check.Scenario.Churn);
  Alcotest.(check bool) "garbage rejected" true
    (Check.Scenario.kind_of_string "bogus" = None)

let test_only_kind_generates_that_kind () =
  for index = 0 to 19 do
    let sc =
      Check.Scenario.generate ~only:Check.Scenario.Churn ~seed:42 ~index ()
    in
    Alcotest.(check bool) "kind pinned" true
      (sc.Check.Scenario.kind = Check.Scenario.Churn);
    Alcotest.(check bool) "churn knobs live" true (sc.Check.Scenario.leave_pm > 0)
  done

let find_failing_churn () =
  if Result.is_error (check churn_prone) then Some churn_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc =
          Check.Scenario.generate ~only:Check.Scenario.Churn ~seed:42 ~index ()
        in
        if Result.is_error (check sc) then Some sc else go (index + 1)
    in
    go 0

(* The acceptance criterion: disabling the departure kill sweep
   ([unsafe_disable_churn_kill] keeps the schedule but stops tearing
   down the victims' circuits) must make the churn oracles fail, and
   the failure must shrink to a replayable one-line reproducer. *)
let test_disabled_churn_kill_is_caught () =
  Workload.Network_experiment.unsafe_disable_churn_kill := true;
  let line =
    Fun.protect
      ~finally:(fun () ->
        Workload.Network_experiment.unsafe_disable_churn_kill := false)
      (fun () ->
        match find_failing_churn () with
        | None ->
            Alcotest.fail "no scenario tripped the oracles with the kill \
                           sweep off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "churn/drain oracle named in: %s" reason)
                  true
                  (contains ~needle:"churn" reason
                  || contains ~needle:"drain" reason
                  || contains ~needle:"departed" reason));
            (* The failure shrinks to a line that still fails on replay. *)
            let shrunk = Check.Harness.shrink ~selection sc in
            let line = Check.Scenario.to_string shrunk in
            let buf = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer buf in
            (match Check.Harness.replay ~selection line ppf with
            | Ok false -> ()
            | Ok true -> Alcotest.fail "shrunk reproducer passed on replay"
            | Error e -> Alcotest.fail e);
            line)
  in
  (* Sweep restored: the very same reproducer line is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with the sweep restored"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* torsim CLI: numeric-flag validation (exercised as a subprocess, so
   the friendly error + nonzero exit is what a user actually gets) *)

let torsim args =
  Sys.command
    (Printf.sprintf "%s %s >/dev/null 2>&1" (Test_util.torsim_exe ()) args)

let test_cli_rejects_bad_numeric_flags () =
  List.iter
    (fun args ->
      Alcotest.(check bool)
        (Printf.sprintf "torsim %s exits nonzero" args)
        true
        (torsim args <> 0))
    [
      "network --relays 0";
      "network --relays=-1";
      "network --budget-kib=-3";
      "network --lifetimes=-5";
      "network --think-ms 0";
      "overload --kib 0";
      "overload --max-circuits=-2";
      "overload --arrival-ms 0";
      "churn-scale --crash-fraction 1.5";
      "churn-scale --epoch-ms 0";
      "churn-scale --grace-ms=-1";
      "churn-scale --leave-rate=-0.5";
      "faults --loss 0.1 --burst-loss 0.2";
      "faults --distance 0";
      "faults --loss 1.5";
      "recover --selection bogus";
      "recover --crash-position 0";
      "check --kind bogus";
      "network --shards 0";
      "churn-scale --shards=-1";
    ]

let test_cli_churn_scale_runs () =
  Alcotest.(check int) "tiny churn-scale run exits 0" 0
    (torsim
       "churn-scale --relays 10 --circuits 8 --lifetimes 20 --think-ms 20 \
        --seed 3")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "churn"
    [
      ( "directory",
        [
          Alcotest.test_case "epoch snapshot lags live" `Quick
            test_epoch_snapshot_lags_live_population;
          Alcotest.test_case "draining stays listed" `Quick
            test_draining_stays_in_snapshot;
          Alcotest.test_case "join waits for epoch" `Quick
            test_join_waits_for_next_epoch;
          Alcotest.test_case "incarnation bumps on restart" `Quick
            test_incarnation_bumps_only_on_return_from_down;
        ] );
      ( "session",
        [
          Alcotest.test_case "draining refusal excludes nobody" `Quick
            test_draining_refusal_excludes_nobody;
          Alcotest.test_case "busy refusal excludes nobody" `Quick
            test_busy_refusal_excludes_nobody;
          Alcotest.test_case "gone excludes the departed relay" `Quick
            test_gone_excludes_until_restart;
          Alcotest.test_case "restart forgives the exclusion" `Quick
            test_restart_forgives_exclusion;
        ] );
      ( "driver",
        [
          Alcotest.test_case "schedule runs deterministically" `Quick
            test_driver_schedule_runs_and_is_deterministic;
          Alcotest.test_case "config validated" `Quick
            test_driver_validates_config;
        ] );
      ( "network",
        [
          Alcotest.test_case "churn counters live" `Quick
            test_network_churn_counters_live;
          Alcotest.test_case "zero hazard is churn-free" `Quick
            test_network_zero_hazard_is_churn_free;
          Alcotest.test_case "jobs deterministic" `Quick
            test_network_churn_deterministic_across_jobs;
          Alcotest.test_case "paired strategies" `Quick
            test_network_churn_paired_strategies;
          Alcotest.test_case "pp_result churn clause" `Quick
            test_network_pp_result_churn_clause;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean scenario passes" `Quick
            test_churn_scenario_passes_clean;
          Alcotest.test_case "line round-trips" `Quick
            test_churn_line_round_trips;
          Alcotest.test_case "old lines default churn-free" `Quick
            test_old_lines_default_to_no_churn;
          Alcotest.test_case "kind_of_string" `Quick test_kind_of_string;
          Alcotest.test_case "--kind pins generation" `Quick
            test_only_kind_generates_that_kind;
          Alcotest.test_case "disabled kill sweep is caught" `Quick
            test_disabled_churn_kill_is_caught;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad numeric flags rejected" `Quick
            test_cli_rejects_bad_numeric_flags;
          Alcotest.test_case "churn-scale smoke" `Quick
            test_cli_churn_scale_runs;
        ] );
    ]
