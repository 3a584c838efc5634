(* Build-time generator of corpus.ml: prints each source file named on
   the command line as a (name, text) pair, the name being the file's
   base name without ".f". *)

let () =
  print_string "(* Generated from table2/*.f by embed/embed.exe. *)\nlet files = [\n";
  Array.iteri
    (fun k path ->
      if k > 0 then begin
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Printf.printf "  (%S, %S);\n" (Filename.chop_suffix (Filename.basename path) ".f") text
      end)
    Sys.argv;
  print_string "]\n"
