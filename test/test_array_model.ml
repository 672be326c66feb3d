module Am = Gnrflash_memory.Array_model
module Cell = Gnrflash_memory.Cell
module F = Gnrflash_device.Fgt
open Gnrflash_testing.Testing

let block () = Am.make F.paper_default ~pages:3 ~strings:4

(* every pulse in this file goes through one oracle *)
let oracle = Gnrflash_device.Program_erase.oracle F.paper_default

let test_make () =
  let b = block () in
  Alcotest.(check int) "pages" 3 b.Am.pages;
  Alcotest.(check int) "strings" 4 b.Am.strings

let test_make_validation () =
  Alcotest.check_raises "dims" (Invalid_argument "Array_model.make: non-positive dimensions")
    (fun () -> ignore (Am.make F.paper_default ~pages:0 ~strings:4))

let test_fresh_block_erased () =
  let bits = Am.page_bits (block ()) ~page:1 in
  Alcotest.(check (array int)) "all erased" [| 1; 1; 1; 1 |] bits

let test_get_set () =
  let b = block () in
  let programmed = check_ok "program" (Cell.program oracle (Cell.make F.paper_default)) in
  let b' = Am.set b ~page:1 ~string_:2 programmed in
  check_true "cell updated" ((Am.get b' ~page:1 ~string_:2).Cell.qfg < 0.);
  (* functional update: the original block is untouched *)
  check_close "original intact" 0. (Am.get b ~page:1 ~string_:2).Cell.qfg;
  let bits = Am.page_bits b' ~page:1 in
  Alcotest.(check (array int)) "one programmed" [| 1; 1; 0; 1 |] bits

let test_coordinates_checked () =
  Alcotest.check_raises "bad page" (Invalid_argument "Array_model: coordinates out of range")
    (fun () -> ignore (Am.get (block ()) ~page:5 ~string_:0))

let test_map_page () =
  let programmed c = match Cell.program oracle c with Ok c' -> c' | Error _ -> c in
  let b = Am.map_page (block ()) ~page:0 programmed in
  Alcotest.(check (array int)) "page 0 programmed" [| 0; 0; 0; 0 |] (Am.page_bits b ~page:0);
  Alcotest.(check (array int)) "page 1 untouched" [| 1; 1; 1; 1 |] (Am.page_bits b ~page:1)

let test_map_all () =
  let programmed c = match Cell.program oracle c with Ok c' -> c' | Error _ -> c in
  let b = Am.map_all (block ()) programmed in
  for p = 0 to 2 do
    Alcotest.(check (array int)) "all programmed" [| 0; 0; 0; 0 |] (Am.page_bits b ~page:p)
  done

let test_wear_summary () =
  let mean0, fluence0, broken0 = Am.wear_summary (block ()) in
  check_close "fresh mean" 0. mean0;
  check_close "fresh fluence" 0. fluence0;
  Alcotest.(check int) "none broken" 0 broken0;
  let programmed c = match Cell.program oracle c with Ok c' -> c' | Error _ -> c in
  let b = Am.map_all (block ()) programmed in
  let mean1, fluence1, _ = Am.wear_summary b in
  check_close "one cycle everywhere" 1. mean1;
  check_true "fluence accumulated" (fluence1 > 0.)

let () =
  Alcotest.run "array_model"
    [
      ( "array_model",
        [
          case "make" test_make;
          case "make validation" test_make_validation;
          case "fresh block erased" test_fresh_block_erased;
          case "get/set functional" test_get_set;
          case "coordinate checking" test_coordinates_checked;
          case "map_page" test_map_page;
          case "map_all" test_map_all;
          case "wear summary" test_wear_summary;
        ] );
    ]
