(* Output checks. Every function returns the failures it found (an empty
   list passes), so the self-test can feed each one a corrupted input and
   see it fail. A failure carries the number of operations it spoils. *)

module S = Gnrflash_memory.Service
module Ftl = Gnrflash_memory.Ftl
module Fsm = Gnrflash_memory.Command_fsm
module Ecc = Gnrflash_memory.Ecc
module W = Gnrflash_memory.Workload
module V = Gnrflash_device.Variation
module Fgt = Gnrflash_device.Fgt
module Transient = Gnrflash_device.Transient

type failure = { what : string; ops : int }

let fail ?(ops = 1) fmt = Printf.ksprintf (fun what -> { what; ops }) fmt
let failed_ops failures = List.fold_left (fun n f -> n + f.ops) 0 failures

(* ---------- service ---------- *)

(* Accounting and integrity fields of one instance's report. *)
let report ~instance ~ops (r : S.report) =
  let count name n = if n = 0 then [] else [ fail ~ops:n "instance %d: %s = %d" instance name n ] in
  List.concat
    [
      (if r.S.ops = ops then []
       else [ fail ~ops:(abs (ops - r.S.ops)) "instance %d: %d ops reported, %d submitted" instance r.S.ops ops ]);
      count "lost_ops" r.S.lost_ops;
      count "read_mismatches" r.S.read_mismatches;
      count "verify_mismatches" r.S.verify_mismatches;
      count "rejected_full" r.S.rejected_full;
      count "bad_sequences" r.S.fsm.Fsm.bad_sequences;
      (match r.S.invariant_error with
       | None -> []
       | Some e -> [ fail "instance %d: FTL invariant broken: %s" instance e ]);
    ]

(* The benchmark's own model of the device contents: lpn -> last written
   data, trims clearing the entry. Built from the generated commands
   alone, never from the service. *)
let oracle ~pages streams =
  let m = Array.make pages None in
  List.iter
    (Array.iter (function
       | W.Cmd_write { lpn; data; suspend = _ } -> m.(lpn mod pages) <- Some data
       | W.Cmd_trim { lpn } -> m.(lpn mod pages) <- None
       | W.Cmd_read _ -> ()))
    streams;
  m

(* Every logical page read back from the device the way firmware would:
   FTL mapping, raw cell sense, SEC-DED decode. *)
let against_device ~instance s oracle =
  let ftl = S.ftl s in
  let ppb = (Ftl.config ftl).Ftl.pages_per_block in
  let bad = ref [] in
  Array.iteri
    (fun lpn expect ->
       let got =
         match Ftl.read ftl ~lpn with
         | None -> None
         | Some (block, page) -> (
           let bits = Fsm.sense_word (S.device s) ~addr:((block * ppb) + page) in
           match Ecc.decode ~k:S.default_config.S.strings bits with
           | Ecc.Clean d | Ecc.Corrected (d, _) -> Some d
           | Ecc.Uncorrectable -> Some [||])
       in
       if got <> expect then
         bad := fail "instance %d: lpn %d differs from the oracle" instance lpn :: !bad)
    oracle;
  List.rev !bad

let digests ~what ~expect got =
  if got = expect then []
  else
    [ fail "%s digests (0x%016X, 0x%016X), expected (0x%016X, 0x%016X)" what
        (fst got) (snd got) (fst expect) (snd expect) ]

(* The traced run replays the command stream on a standalone FTL; its
   counters must match the FTL inside the service. *)
let ftl_shadow ~instance (shadow : Ftl.stats) (served : Ftl.stats) =
  if shadow = served then []
  else [ fail "instance %d: shadow FTL replay diverged from the service" instance ]

(* ---------- variation ---------- *)

let label = function
  | None -> ""
  | Some e -> Gnrflash_resilience.Solver_error.label e

let bits = Int64.bits_of_float

let same_sample (a : V.sample) (b : V.sample) =
  bits a.V.xto = bits b.V.xto
  && bits a.V.phi_b_ev = bits b.V.phi_b_ev
  && bits a.V.gcr = bits b.V.gcr
  && bits a.V.program_time = bits b.V.program_time
  && bits a.V.dvt_fixed_pulse = bits b.V.dvt_fixed_pulse
  && a.V.solve_failed = b.V.solve_failed
  && label a.V.failure = label b.V.failure

(* Field-by-field bit identity against the jobs-1 reference. *)
let samples ~reference got =
  if Array.length got <> Array.length reference then
    [ fail ~ops:(Array.length reference) "%d samples, expected %d" (Array.length got)
        (Array.length reference) ]
  else begin
    let bad = ref [] in
    Array.iteri
      (fun i r -> if not (same_sample r got.(i)) then bad := fail "sample %d differs from the jobs-1 reference" i :: !bad)
      reference;
    List.rev !bad
  end

let solves samples =
  let bad = ref [] in
  Array.iteri
    (fun i s ->
       if s.V.solve_failed || not (Float.is_finite s.V.dvt_fixed_pulse) then
         bad := fail "sample %d: solve failed (%s)" i (label s.V.failure) :: !bad)
    samples;
  List.rev !bad

(* Each sample's drawn parameters must be the device [Variation.perturbed]
   gives for its slot. *)
let perturbation ~devices samples =
  let bad = ref [] in
  Array.iteri
    (fun i (d : Fgt.t) ->
       let s = samples.(i) in
       if bits d.Fgt.xto <> bits s.V.xto
       || bits d.Fgt.tunnel_fn.Gnrflash_quantum.Fn.phi_b_ev <> bits s.V.phi_b_ev
       then bad := fail "sample %d: parameters differ from its perturbed device" i :: !bad)
    devices;
  List.rev !bad

(* Re-solve a few samples directly through [Transient], outside the
   sweep and its pool. *)
let direct_solve ~devices ~indices samples =
  List.concat_map
    (fun i ->
       let d = devices.(i) and s = samples.(i) in
       let t =
         match Transient.time_to_threshold_shift d ~vgs:15. ~dvt:2. ~max_time:1. with
         | Ok (Some t) -> t
         | Ok None -> infinity
         | Error _ -> nan
       in
       let dvt =
         match Transient.run d ~vgs:15. ~duration:100e-9 with
         | Ok r -> r.Transient.dvt_final
         | Error _ -> nan
       in
       if bits t = bits s.V.program_time && bits dvt = bits s.V.dvt_fixed_pulse then []
       else [ fail "sample %d: direct transient solve disagrees" i ])
    indices

let sample_digest samples =
  Array.fold_left
    (fun h (s : V.sample) ->
       let f h x = W.digest_fold h (Int64.to_int (bits x)) in
       let h = f (f (f (f (f h s.V.xto) s.V.phi_b_ev) s.V.gcr) s.V.program_time) s.V.dvt_fixed_pulse in
       W.digest_fold h (Hashtbl.hash (label s.V.failure)))
    W.digest_empty samples
