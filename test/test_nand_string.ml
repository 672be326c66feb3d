module Ns = Gnrflash_memory.Nand_string
module Cell = Gnrflash_memory.Cell
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

(* every pulse in this file goes through one oracle *)
let oracle = Gnrflash_device.Program_erase.oracle F.paper_default

let fresh_string n = Ns.make (Array.init n (fun _ -> Cell.make F.paper_default))

let test_make_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Nand_string.make: empty string")
    (fun () -> ignore (Ns.make [||]))

let test_length () = Alcotest.(check int) "length" 8 (Ns.length (fresh_string 8))

let test_read_erased_string () =
  let s = fresh_string 4 in
  for i = 0 to 3 do
    let bit = check_ok "read" (Ns.read_bit s ~selected:i) in
    Alcotest.(check int) "erased reads 1" 1 bit
  done

let test_read_programmed_cell () =
  (* a fully saturated cell shifts VT by ~6.7 V, so V_pass must exceed
     vt0 + dVT for the series string to stay conductive *)
  let s = Ns.make ~v_pass:9. (Array.init 4 (fun _ -> Cell.make F.paper_default)) in
  let programmed = check_ok "program" (Cell.program oracle (Cell.make F.paper_default)) in
  let s = Ns.update_cell s 2 programmed in
  Alcotest.(check int) "programmed reads 0" 0 (check_ok "read" (Ns.read_bit s ~selected:2));
  Alcotest.(check int) "neighbor unaffected" 1 (check_ok "read" (Ns.read_bit s ~selected:1))

let test_bad_index () =
  check_error "out of range" (Ns.read_bit (fresh_string 4) ~selected:9);
  Alcotest.check_raises "update" (Invalid_argument "Nand_string.update_cell: bad index")
    (fun () -> ignore (Ns.update_cell (fresh_string 4) 9 (Cell.make F.paper_default)))

let test_blocked_string () =
  (* an unselected cell whose VT exceeds V_pass breaks the series path *)
  let s = Ns.make ~v_pass:2. (Array.init 4 (fun _ -> Cell.make F.paper_default)) in
  let programmed = check_ok "program" (Cell.program oracle (Cell.make F.paper_default)) in
  let s = Ns.update_cell s 1 programmed in
  (* cell 1 has dVT ~ 6.7 V > 2 V pass: reading another page must fail *)
  check_error "blocked" (Ns.read_bit s ~selected:3)

let test_string_current_bottleneck () =
  let s = fresh_string 4 in
  let i_fresh = Ns.string_current s ~selected:0 in
  check_true "erased string conducts" (i_fresh > 0.);
  let programmed = check_ok "program" (Cell.program oracle (Cell.make F.paper_default)) in
  let s' = Ns.update_cell s 0 programmed in
  let i_prog = Ns.string_current s' ~selected:0 in
  check_true "programmed cell throttles the string" (i_prog < i_fresh /. 10.)

let test_pass_disturb_events () =
  let s = fresh_string 5 in
  let victims = Ns.pass_disturb_events s ~selected:2 in
  Alcotest.(check int) "all others exposed" 4 (Array.length victims);
  check_true "selected excluded" (not (Array.mem 2 victims))

let () =
  Alcotest.run "nand_string"
    [
      ( "nand_string",
        [
          case "make validation" test_make_validation;
          case "length" test_length;
          case "erased string reads 1s" test_read_erased_string;
          case "programmed cell reads 0" test_read_programmed_cell;
          case "index errors" test_bad_index;
          case "blocked string" test_blocked_string;
          case "series bottleneck" test_string_current_bottleneck;
          case "pass-disturb victims" test_pass_disturb_events;
        ] );
    ]
