(* The two service workloads: a fleet of [Service] instances run serially
   through [Sweep.init ~jobs:1], as the [serve] command runs it. Each
   round builds a fresh fleet (set-up, timed separately), runs the
   pre-generated commands (timed), then checks every output (untimed). *)

module S = Gnrflash_memory.Service
module W = Gnrflash_memory.Workload
module Ftl = Gnrflash_memory.Ftl
module Fsm = Gnrflash_memory.Command_fsm
module Ecc = Gnrflash_memory.Ecc
module Sweep = Gnrflash_parallel.Sweep
module Tel = Gnrflash_telemetry.Telemetry

type kind = Mixed | Read_heavy

type size = { instances : int; ops : int (* timed commands per instance *) }

let strings = S.default_config.S.strings

let profile kind ~pages =
  match kind with
  | Mixed -> { W.default_profile with W.pages; strings }
  | Read_heavy ->
    { W.pattern = W.Uniform; pages; strings; read_fraction = 0.98;
      trim_fraction = 0.; suspend_fraction = 0. }

(* One sequential write per logical page. *)
let prefill_profile ~pages =
  { W.pattern = W.Sequential; pages; strings; read_fraction = 0.;
    trim_fraction = 0.; suspend_fraction = 0. }

type fleet = {
  services : S.t array;
  prefill : W.host_cmd array array;
  cmds : W.host_cmd array array;
  model0 : float array;       (* device clock when the timed traffic starts *)
  fsm0 : Fsm.stats array;     (* FSM counters at the same point *)
}

(* Set-up: services, command generation, prefill. A traced round passes
   a recorder and span name for the generation calls. *)
let setup ?spans kind ~seed ~size =
  let n = size.instances in
  let services = Array.init n (fun _ -> S.create Gnrflash_device.Fgt.paper_default) in
  let pages = S.logical_pages services.(0) in
  let generate ~seed ~profile ~ops =
    match spans with
    | None -> W.generate_commands ~seed ~profile ~ops
    | Some (rec_, id) -> Spans.span rec_ id (fun () -> W.generate_commands ~seed ~profile ~ops)
  in
  let cmds =
    Array.init n (fun i ->
        generate ~seed:(Sweep.splitmix ~seed ~index:i) ~profile:(profile kind ~pages)
          ~ops:size.ops)
  in
  let prefill =
    Array.init n (fun i ->
        match kind with
        | Mixed -> [||]
        | Read_heavy ->
          generate ~seed:(Sweep.splitmix ~seed ~index:(n + i))
            ~profile:(prefill_profile ~pages) ~ops:pages)
  in
  Array.iteri (fun i s -> Array.iter (S.exec s) prefill.(i)) services;
  {
    services;
    prefill;
    cmds;
    model0 = Array.map (fun s -> Fsm.now (S.device s)) services;
    fsm0 = Array.map (fun s -> Fsm.stats (S.device s)) services;
  }

let run_fleet fleet =
  Sweep.init ~jobs:1 (Array.length fleet.services) (fun i ->
      let s = fleet.services.(i) in
      Array.iter (S.exec s) fleet.cmds.(i);
      S.report s)

let fleet_digests reports =
  let fold f = Array.fold_left (fun h r -> W.digest_fold h (f r)) W.digest_empty reports in
  (fold (fun r -> r.S.trace_digest), fold (fun r -> r.S.state_digest))

let model_us_per_op fleet reports =
  let t = ref 0. and ops = ref 0 in
  Array.iteri
    (fun i r ->
       t := !t +. (r.S.model_time -. fleet.model0.(i));
       ops := !ops + Array.length fleet.cmds.(i))
    reports;
  1e6 *. !t /. float_of_int !ops

(* ---------- corruption hooks for the self-test ---------- *)

let corrupt_report (r : S.report) = { r with S.lost_ops = r.S.lost_ops + 1 }

let corrupt_oracle oracle =
  let o = Array.copy oracle in
  (match Array.find_index Option.is_some o with
   | Some lpn ->
     let d = Array.copy (Option.get o.(lpn)) in
     d.(0) <- 1 - d.(0);
     o.(lpn) <- Some d
   | None -> o.(0) <- Some (Array.make strings 0));
  o

let check ?corrupt fleet reports =
  let pages = S.logical_pages fleet.services.(0) in
  List.concat
    (List.init (Array.length reports) (fun i ->
         let r = if i = 0 && corrupt = Some "report" then corrupt_report reports.(i) else reports.(i) in
         let oracle = Checks.oracle ~pages [ fleet.prefill.(i); fleet.cmds.(i) ] in
         let oracle = if i = 0 && corrupt = Some "oracle" then corrupt_oracle oracle else oracle in
         Checks.report ~instance:i
           ~ops:(Array.length fleet.prefill.(i) + Array.length fleet.cmds.(i)) r
         @ Checks.against_device ~instance:i fleet.services.(i) oracle))

(* ---------- traced round ---------- *)

type names = {
  fleet_id : int; write_id : int; read_id : int; trim_id : int;
  report_id : int; ftl_id : int; encode_id : int; decode_id : int;
}

let names spans =
  let i = Spans.intern spans in
  {
    fleet_id = i "sweep.fleet"; write_id = i "service.exec_write";
    read_id = i "service.exec_read"; trim_id = i "service.exec_trim";
    report_id = i "service.report"; ftl_id = i "ftl.shadow";
    encode_id = i "ecc.encode"; decode_id = i "ecc.decode";
  }

(* Inputs of the ECC shadow, built before the traced round: the data of
   every write, and the codeword of every read that hits a mapped page
   (what the service decodes). [fresh] counts the distinct data words the
   service's codeword memo has to encode during the timed traffic. *)
type ecc_inputs = { encodes : int array array; decodes : int array array; fresh : int }

let ecc_inputs fleet i =
  let pages = S.logical_pages fleet.services.(i) in
  let state = Checks.oracle ~pages [ fleet.prefill.(i) ] in
  let seen = Hashtbl.create 256 in
  Array.iter (function W.Cmd_write { data; _ } -> Hashtbl.replace seen data () | _ -> ()) fleet.prefill.(i);
  let encodes = ref [] and decodes = ref [] and fresh = ref 0 in
  Array.iter
    (function
      | W.Cmd_write { lpn; data; _ } ->
        encodes := data :: !encodes;
        if not (Hashtbl.mem seen data) then begin
          Hashtbl.add seen data ();
          incr fresh
        end;
        state.(lpn mod pages) <- Some data
      | W.Cmd_trim { lpn } -> state.(lpn mod pages) <- None
      | W.Cmd_read { lpn } -> (
        match state.(lpn mod pages) with
        | Some d -> decodes := Ecc.encode d :: !decodes
        | None -> ()))
    fleet.cmds.(i);
  { encodes = Array.of_list (List.rev !encodes);
    decodes = Array.of_list (List.rev !decodes); fresh = !fresh }

(* The same command stream on a standalone FTL, through the calls the
   service makes: [write_in_place] + [take_journal], [read],
   [trim_in_place]. Returns the shadow's stats after the prefill and at
   the end, and the number of physical ops journaled by the timed
   traffic. *)
let ftl_shadow spans nm fleet i =
  let f = Ftl.create S.default_config.S.ftl in
  let pages = Ftl.logical_capacity f in
  let phys = ref 0 in
  let apply = function
    | W.Cmd_write { lpn; _ } -> (
      match Ftl.write_in_place f ~lpn:(lpn mod pages) with
      | Ok () -> phys := !phys + List.length (Ftl.take_journal f)
      | Error _ -> ())
    | W.Cmd_read { lpn } -> ignore (Ftl.read f ~lpn:(lpn mod pages))
    | W.Cmd_trim { lpn } -> Ftl.trim_in_place f ~lpn:(lpn mod pages)
  in
  Array.iter apply fleet.prefill.(i);
  let before = Ftl.stats f in
  phys := 0;
  Spans.span spans nm.ftl_id (fun () -> Array.iter apply fleet.cmds.(i));
  (before, Ftl.stats f, !phys)

let ecc_shadow spans nm inp =
  Spans.span spans nm.encode_id (fun () -> Array.iter (fun d -> ignore (Ecc.encode d)) inp.encodes);
  Spans.span spans nm.decode_id (fun () ->
      Array.iter (fun cw -> ignore (Ecc.decode ~k:strings cw)) inp.decodes)

let span_id_of nm = function
  | W.Cmd_write _ -> nm.write_id
  | W.Cmd_read _ -> nm.read_id
  | W.Cmd_trim _ -> nm.trim_id

(* Pulse-path counters of the served traffic, read from the library's
   own telemetry. *)
let pulse_counters () =
  let c = Tel.counter_total in
  let pulses = c "program_erase/pulse" and replays = c "program_erase/pulse_replay"
  and hits = c "surrogate/hit" and builds = c "surrogate/build"
  and exact = c "program_erase/pulse/transient/run/transient/solve" in
  (pulses, replays, hits, builds, exact)

let traced_round spans ~round fleet ecc =
  let nm = names spans in
  Spans.set_round spans round;
  Tel.reset ();
  Tel.enable ();
  let fleet_span = ref 0 in
  let reports =
    Fun.protect ~finally:Tel.disable (fun () ->
        fleet_span := spans.Spans.len;
        Spans.span spans nm.fleet_id (fun () ->
            Sweep.init ~jobs:1 (Array.length fleet.services) (fun i ->
                let s = fleet.services.(i) in
                Array.iter
                  (fun c ->
                     let k = Spans.enter spans (span_id_of nm c) in
                     S.exec s c;
                     Spans.leave spans k)
                  fleet.cmds.(i);
                Spans.span spans nm.report_id (fun () -> S.report s))))
  in
  let _pulses, replays, hits, builds, exact = pulse_counters () in
  let shadows = Array.init (Array.length reports) (fun i -> ftl_shadow spans nm fleet i) in
  Array.iter (ecc_shadow spans nm) ecc;
  let shadow_failures =
    List.concat
      (List.init (Array.length reports) (fun i ->
           let _, shadow, _ = shadows.(i) in
           Checks.ftl_shadow ~instance:i shadow reports.(i).S.ftl))
  in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 in
  let ops = sum Array.length fleet.cmds in
  let fops = float_of_int ops in
  let sm name = Spans.summary spans ~round name in
  let w = sm "service.exec_write" and r = sm "service.exec_read" and t = sm "service.exec_trim" in
  let per n x = if n = 0 then 0. else float_of_int x /. float_of_int n in
  let ftl = sm "ftl.shadow" and enc = sm "ecc.encode" and dec = sm "ecc.decode" in
  let n_enc = sum (fun e -> Array.length e.encodes) ecc
  and n_dec = sum (fun e -> Array.length e.decodes) ecc
  and fresh = sum (fun e -> e.fresh) ecc in
  let encode_ns = per n_enc enc.Spans.self_ns in
  let exec_ns = w.Spans.self_ns + r.Spans.self_ns + t.Spans.self_ns in
  let dfsm f = sum (fun i -> f (Fsm.stats (S.device fleet.services.(i))) - f fleet.fsm0.(i))
      (Array.init (Array.length reports) Fun.id) in
  let fsm_pulses = dfsm (fun s -> s.Fsm.program_pulses + s.Fsm.erase_pulses) in
  let dftl f = sum (fun (before, after, _) -> f after - f before) shadows in
  let host_writes = dftl (fun st -> st.Ftl.host_writes)
  and device_writes = dftl (fun st -> st.Ftl.device_writes)
  and gc_runs = dftl (fun st -> st.Ftl.gc_runs)
  and phys = sum (fun (_, _, p) -> p) shadows in
  let layers =
    [
      ("service.exec_write_ns", per w.Spans.count w.Spans.self_ns);
      ("service.exec_write_p99_ns", float_of_int (Spans.percentile w.Spans.durations 0.99));
      ("service.write_words", per w.Spans.count w.Spans.words);
      ("service.exec_read_ns", per r.Spans.count r.Spans.self_ns);
      ("service.exec_read_p99_ns", float_of_int (Spans.percentile r.Spans.durations 0.99));
      ("service.read_words", per r.Spans.count r.Spans.words);
      ("service.exec_trim_ns", per t.Spans.count t.Spans.self_ns);
      ("service.report_ms", float_of_int (sm "service.report").Spans.self_ns /. 1e6);
      ( "service.mirror_ns_per_op",
        (float_of_int (exec_ns - ftl.Spans.self_ns - dec.Spans.self_ns)
         -. (encode_ns *. float_of_int fresh)) /. fops );
      ("ftl.ns_per_op", float_of_int ftl.Spans.self_ns /. fops);
      ("ftl.words_per_op", float_of_int ftl.Spans.words /. fops);
      ("ftl.write_amplification", per host_writes device_writes);
      ("ftl.gc_runs_per_kop", 1000. *. float_of_int gc_runs /. fops);
      ("ftl.phys_ops_per_write", per host_writes phys);
      ("ecc.encode_ns", encode_ns);
      ("ecc.decode_ns", per n_dec dec.Spans.self_ns);
      ("ecc.decode_words", per n_dec dec.Spans.words);
      ("command_fsm.bus_cycles_per_op", float_of_int (dfsm (fun s -> s.Fsm.bus_cycles)) /. fops);
      ("command_fsm.pulses_per_op", float_of_int fsm_pulses /. fops);
      ( "command_fsm.words_programmed_per_op",
        float_of_int (dfsm (fun s -> s.Fsm.words_programmed)) /. fops );
      ( "command_fsm.sector_erases_per_kop",
        1000. *. float_of_int (dfsm (fun s -> s.Fsm.sector_erases)) /. fops );
      ("pulse.exact_solves_per_kop", 1000. *. float_of_int exact /. fops);
      ("pulse.surrogate_hits_per_kop", 1000. *. float_of_int hits /. fops);
      ("pulse.replays_per_kop", 1000. *. float_of_int replays /. fops);
      ("pulse.surrogate_builds", float_of_int builds);
      ("pulse.solves_per_kpulse", per fsm_pulses (1000 * exact));
    ]
  in
  (reports, shadow_failures, layers, Spans.duration spans !fleet_span)
