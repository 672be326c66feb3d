module S = Gnrflash_memory.Service
module C = Gnrflash_memory.Command_fsm
module W = Gnrflash_memory.Workload
module Ftl = Gnrflash_memory.Ftl
module E = Gnrflash_memory.Ecc
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

(* Small geometry: 4 blocks x 8 pages -> 21 logical pages, 4-bit data
   words carried in 8-bit SEC-DED codewords. *)
let small_cfg =
  { S.default_config with
    S.ftl = { Ftl.blocks = 4; pages_per_block = 8; gc_threshold = 4; endurance_limit = 1000 };
    strings = 4;
  }

let mk ?(config = small_cfg) () = S.create ~config F.paper_default

let profile =
  { W.default_profile with
    W.pattern = W.Zipf 1.1;
    read_fraction = 0.3;
    trim_fraction = 0.05;
    suspend_fraction = 0.1;
  }

let test_geometry () =
  let s = mk () in
  Alcotest.(check int) "logical pages" 21 (S.logical_pages s);
  let dc = C.config (S.device s) in
  Alcotest.(check int) "sectors = blocks" 4 dc.C.sectors;
  Alcotest.(check int) "words per sector = pages per block" 8
    dc.C.words_per_sector;
  Alcotest.(check int) "codeword width" (4 + E.overhead 4) dc.C.word_bits

let test_end_to_end_trace () =
  let s = mk () in
  let r = S.run_trace ~profile ~seed:7 ~ops:600 s in
  Alcotest.(check int) "all ops submitted" 600 r.S.ops;
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  Alcotest.(check int) "no read mismatches" 0 r.S.read_mismatches;
  Alcotest.(check int) "final scan clean" 0 r.S.verify_mismatches;
  Alcotest.(check int) "no protocol errors" 0 r.S.fsm.C.bad_sequences;
  check_true "invariants hold" (r.S.invariant_error = None);
  check_true "device time advanced" (r.S.model_time > 0.);
  check_true "writes landed" (r.S.writes > 0);
  check_true "reads hit mapped pages" (r.S.read_hits > 0);
  check_true "GC erases mirrored to the device"
    (r.S.fsm.C.sector_erases = r.S.ftl.Ftl.erases);
  Alcotest.(check int) "journal fully mirrored" r.S.ftl.Ftl.device_writes
    r.S.fsm.C.words_programmed;
  (* latency percentiles are ordered and positive *)
  let l = r.S.latency in
  check_true "p50 > 0" (l.S.p50 > 0.);
  check_true "percentiles ordered"
    (l.S.p50 <= l.S.p95 && l.S.p95 <= l.S.p99 && l.S.p99 <= l.S.max);
  check_true "mean within range" (l.S.mean > 0. && l.S.mean <= l.S.max)

let test_determinism_across_instances () =
  let run () =
    let s = mk () in
    S.run_trace ~profile ~seed:11 ~ops:400 s
  in
  let a = run () and b = run () in
  Alcotest.(check int) "trace digest stable" a.S.trace_digest b.S.trace_digest;
  Alcotest.(check int) "state digest stable" a.S.state_digest b.S.state_digest;
  let c = mk () in
  let c = S.run_trace ~profile ~seed:12 ~ops:400 c in
  check_true "different seed, different trace"
    (c.S.trace_digest <> a.S.trace_digest)

(* Two services on the same device record must not see each other:
   interleaving their commands op by op in one domain must give each the
   trace and state digests it gets when run alone. *)
let test_interleaving_independent () =
  let n = 2 and ops = 2000 in
  let fresh () = S.create F.paper_default in
  let profile =
    { W.default_profile with
      W.pages = S.logical_pages (fresh ());
      strings = S.default_config.S.strings;
    }
  in
  let cmds =
    Array.init n (fun i ->
        W.generate_commands
          ~seed:(Gnrflash_parallel.Sweep.splitmix ~seed:2014 ~index:i)
          ~profile ~ops)
  in
  let digests (r : S.report) = (r.S.trace_digest, r.S.state_digest) in
  let alone = Array.map (fun c -> digests (S.run (fresh ()) c)) cmds in
  let services = Array.init n (fun _ -> fresh ()) in
  for k = 0 to ops - 1 do
    Array.iteri (fun i s -> S.exec s cmds.(i).(k)) services
  done;
  Array.iteri
    (fun i s ->
       let tr, st = digests (S.report s) and tr0, st0 = alone.(i) in
       Alcotest.(check int) (Printf.sprintf "instance %d trace digest" i) tr0 tr;
       Alcotest.(check int) (Printf.sprintf "instance %d state digest" i) st0 st)
    services

let test_suspend_exercised () =
  let s = mk () in
  let r =
    S.run_trace
      ~profile:{ profile with W.read_fraction = 0.; trim_fraction = 0.; suspend_fraction = 1. }
      ~seed:3 ~ops:800 s
  in
  check_true "suspends happened" (r.S.fsm.C.suspends > 0);
  Alcotest.(check int) "every suspend resumed" r.S.fsm.C.suspends
    r.S.fsm.C.resumes;
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  Alcotest.(check int) "final scan clean" 0 r.S.verify_mismatches

let test_device_full_is_accounted () =
  (* tiny endurance: the device dies mid-trace; rejected writes must be
     typed and accounted, never lost, and never an escaped internal error *)
  let s =
    mk
      ~config:
        { small_cfg with
          S.ftl = { small_cfg.S.ftl with Ftl.endurance_limit = 3 } }
      ()
  in
  let r =
    S.run_trace
      ~profile:{ profile with W.read_fraction = 0.1; trim_fraction = 0. }
      ~seed:5 ~ops:1500 s
  in
  check_true "device filled up" (r.S.rejected_full > 0);
  Alcotest.(check int) "no op lost" 0 r.S.lost_ops;
  check_true "invariants hold at end of life" (r.S.invariant_error = None);
  check_true "blocks retired" (r.S.ftl.Ftl.retired_blocks > 0)

let test_exec_single_commands () =
  let s = mk () in
  S.exec s (W.Cmd_write { lpn = 3; data = [| 1; 0; 1; 1 |]; suspend = false });
  S.exec s (W.Cmd_read { lpn = 3 });
  S.exec s (W.Cmd_trim { lpn = 3 });
  S.exec s (W.Cmd_read { lpn = 3 });
  let r = S.report s in
  Alcotest.(check int) "ops" 4 r.S.ops;
  Alcotest.(check int) "one write" 1 r.S.writes;
  Alcotest.(check int) "two reads" 2 r.S.reads;
  Alcotest.(check int) "one hit (pre-trim)" 1 r.S.read_hits;
  Alcotest.(check int) "one trim" 1 r.S.trims;
  Alcotest.(check int) "clean" 0 r.S.read_mismatches

(* Disturb feedback threads through the service config down to the FSM:
   the enabled run counts the same events but lands on a different final
   cell state, deterministically. *)
let test_disturb_feedback_threaded () =
  let dcfg =
    Gnrflash_device.Disturb.half_select ~vgs_program:15. ~pulse_width:10e-6
  in
  let run disturb =
    let s = mk ~config:{ small_cfg with S.disturb } () in
    S.run_trace ~profile ~seed:21 ~ops:40 s
  in
  let off = run None and on_ = run (Some dcfg) in
  check_true "events counted" (on_.S.fsm.C.disturb_events > 0);
  Alcotest.(check int) "same events either way" off.S.fsm.C.disturb_events
    on_.S.fsm.C.disturb_events;
  Alcotest.(check int) "no op lost with feedback on" 0 on_.S.lost_ops;
  check_true "feedback shifts the final state"
    (on_.S.state_digest <> off.S.state_digest);
  Alcotest.(check int) "feedback is deterministic" on_.S.state_digest
    (run (Some dcfg)).S.state_digest

let prop_no_op_lost =
  prop "every command is accounted under random profiles" ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
       let s = mk () in
       let r = S.run_trace ~profile ~seed ~ops:200 s in
       r.S.lost_ops = 0 && r.S.verify_mismatches = 0
       && r.S.invariant_error = None
       && r.S.reads + r.S.writes + r.S.rejected_full + r.S.trims = r.S.ops)

(* The report's sort and summary against the boxed path they replaced:
   [Array.sort compare] then [Array.fold_left ( +. )] and nearest-rank
   percentiles. Arrays mix ties, both zeros and NaNs, so any departure
   from the stdlib heap sort's comparison order shows up in the bits. *)
let prop_latency_summary_bit_identical =
  let elt =
    QCheck2.Gen.(
      frequency
        [
          (2, return 0.);
          (1, return (-0.));
          (1, return nan);
          (3, oneofl [ 1e-6; 1e-3; 2.5e-3; 1e-3 ]);
          (4, float_range 0. 1e-2);
        ])
  in
  prop "float sort and summary match Array.sort compare" ~count:300
    QCheck2.Gen.(array_size (int_range 0 200) elt)
    (fun xs ->
       let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
       let ref_sorted = Array.copy xs in
       Array.sort compare ref_sorted;
       let sorted = Array.copy xs in
       Gnrflash_numerics.Stats.sort_in_place sorted;
       let n = Array.length xs in
       let pct p =
         if n = 0 then 0.
         else ref_sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))
       in
       let mean =
         if n = 0 then 0. else Array.fold_left ( +. ) 0. ref_sorted /. float_of_int n
       in
       let sum = S.summarize sorted in
       Array.for_all2 same ref_sorted sorted
       && same sum.S.mean mean
       && same sum.S.p50 (pct 0.50)
       && same sum.S.p95 (pct 0.95)
       && same sum.S.p99 (pct 0.99)
       && same sum.S.max (if n = 0 then 0. else ref_sorted.(n - 1)))

let () =
  Alcotest.run "service"
    [
      ( "service",
        [
          case "geometry" test_geometry;
          case "end to end trace" test_end_to_end_trace;
          case "determinism" test_determinism_across_instances;
          case "interleaved instances independent" test_interleaving_independent;
          case "suspend exercised" test_suspend_exercised;
          case "device full accounted" test_device_full_is_accounted;
          case "single commands" test_exec_single_commands;
          case "disturb feedback threaded" test_disturb_feedback_threaded;
          prop_no_op_lost;
          prop_latency_summary_bit_identical;
        ] );
    ]
