module D = Gnrflash_device

type stats = {
  programs : int;
  erases : int;
  reads : int;
  program_failures : int;
  disturb_events : int;
}

let empty_stats =
  { programs = 0; erases = 0; reads = 0; program_failures = 0; disturb_events = 0 }

type t = {
  block : Array_model.t;
  stats : stats;
  ispp : D.Ispp.config;
  disturb : D.Disturb.config;
  oracle : D.Program_erase.oracle;
}

let make ?(ispp = D.Ispp.default) ?disturb block =
  let disturb =
    match disturb with
    | Some d -> d
    | None ->
      D.Disturb.half_select ~vgs_program:ispp.D.Ispp.v_start
        ~pulse_width:ispp.D.Ispp.pulse_width
  in
  let device = (Array_model.get block ~page:0 ~string_:0).Cell.device in
  { block; stats = empty_stats; ispp; disturb; oracle = D.Program_erase.oracle device }

let program_page t ~page ~data =
  if Array.length data <> t.block.Array_model.strings then
    invalid_arg "Controller.program_page: data length mismatch";
  let block = ref t.block in
  let failures = ref 0 in
  let disturb_events = ref 0 in
  let error = ref None in
  Array.iteri
    (fun s bit ->
       if Option.is_none !error && bit = 0 then begin
         let c = Array_model.get !block ~page ~string_:s in
         match D.Ispp.run ~config:t.ispp t.oracle ~qfg0:c.Cell.qfg with
         | Error e -> error := Some e
         | Ok r ->
           if not r.D.Ispp.passed then incr failures;
           let qfg =
             match List.rev r.D.Ispp.steps with
             | last :: _ -> last.D.Ispp.qfg
             | [] -> c.Cell.qfg
           in
           block := Array_model.set !block ~page ~string_:s { c with Cell.qfg };
           (* every pulse exposes the inhibited cells on this word line *)
           disturb_events := !disturb_events + r.D.Ispp.pulses_used
       end)
    data;
  match !error with
  | Some e -> Error e
  | None ->
    (* apply the accumulated disturb to inhibited (data = 1) cells *)
    let n_events = !disturb_events in
    let block', disturb_err =
      Array.to_list data
      |> List.mapi (fun s bit -> (s, bit))
      |> List.fold_left
        (fun (b, err) (s, bit) ->
           match err with
           | Some _ -> (b, err)
           | None ->
             if bit = 1 && n_events > 0 then begin
               let c = Array_model.get b ~page ~string_:s in
               let duration =
                 float_of_int n_events *. t.disturb.D.Disturb.pulse_width
               in
               match
                 D.Transient.run ~qfg0:c.Cell.qfg c.Cell.device
                   ~vgs:t.disturb.D.Disturb.v_disturb ~duration
               with
               | Error e ->
                 (b, Some (Gnrflash_resilience.Solver_error.to_string e))
               | Ok r ->
                 ( Array_model.set b ~page ~string_:s
                     { c with Cell.qfg = r.D.Transient.qfg_final },
                   None )
             end
             else (b, err))
        (!block, None)
    in
    (match disturb_err with
     | Some e -> Error e
     | None ->
       Ok
         {
           t with
           block = block';
           stats =
             {
               t.stats with
               programs = t.stats.programs + 1;
               program_failures = t.stats.program_failures + !failures;
               disturb_events = t.stats.disturb_events + n_events;
             };
         })

let erase_block t =
  let error = ref None in
  let block =
    Array_model.map_all t.block (fun c ->
        match !error with
        | Some _ -> c
        | None ->
          (match Cell.erase t.oracle c with
           | Error e ->
             error := Some e;
             c
           | Ok c' -> c'))
  in
  match !error with
  | Some e -> Error e
  | None ->
    Ok { t with block; stats = { t.stats with erases = t.stats.erases + 1 } }

let read_page t ~page =
  let bits = Array_model.page_bits t.block ~page in
  Ok ({ t with stats = { t.stats with reads = t.stats.reads + 1 } }, bits)

let verify_page t ~page ~data =
  let bits = Array_model.page_bits t.block ~page in
  bits = data
