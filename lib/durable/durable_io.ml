type corruption = { dur_path : string; dur_offset : int; dur_reason : string }

exception Corrupt of corruption

let () =
  Printexc.register_printer (function
    | Corrupt c ->
        Some
          (Printf.sprintf "Durable_io.Corrupt(%s @ %d: %s)" c.dur_path
             c.dur_offset c.dur_reason)
    | _ -> None)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let digest_trailer_prefix = "#hydra-digest md5 "

let digest_trailer body =
  digest_trailer_prefix ^ Digest.to_hex (Digest.string body) ^ "\n"

let temp_prefix = ".hydra-durable"
let temp_suffix = ".tmp"

let is_temp_file name =
  String.starts_with ~prefix:temp_prefix name
  && Filename.check_suffix name temp_suffix

(* a rename is only durable once the directory entry it rewrote is on
   disk. Best-effort: some filesystems refuse fsync on a directory
   descriptor, and the file's own bytes are already synced *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_atomic ?(fsync = true) ?(digest = false) path fill =
  let buf = Buffer.create 4096 in
  fill buf;
  if digest then Buffer.add_string buf (digest_trailer (Buffer.contents buf));
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir temp_prefix temp_suffix in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ok then try Sys.remove tmp with _ -> ())
    (fun () ->
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let bytes = Buffer.to_bytes buf in
          let n = Bytes.length bytes in
          let written = ref 0 in
          while !written < n do
            written :=
              !written + Unix.write fd bytes !written (n - !written)
          done;
          if fsync then Unix.fsync fd);
      Sys.rename tmp path;
      ok := true;
      if fsync then fsync_dir dir)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_verified path =
  let text = slurp path in
  (* locate a trailer as the final newline-terminated line *)
  let n = String.length text in
  let line_start =
    if n = 0 || text.[n - 1] <> '\n' then None
    else
      match String.rindex_from_opt text (n - 2) '\n' with
      | Some i -> Some (i + 1)
      | None -> Some 0
  in
  match line_start with
  | Some s
    when n - s > String.length digest_trailer_prefix
         && String.sub text s (String.length digest_trailer_prefix)
            = digest_trailer_prefix ->
      let body = String.sub text 0 s in
      let hex_start = s + String.length digest_trailer_prefix in
      let hex = String.trim (String.sub text hex_start (n - 1 - hex_start)) in
      let expect = Digest.to_hex (Digest.string body) in
      if String.length hex <> 32 then
        raise
          (Corrupt
             {
               dur_path = path;
               dur_offset = s;
               dur_reason = "malformed digest trailer";
             })
      else if not (String.equal hex expect) then
        raise
          (Corrupt
             {
               dur_path = path;
               dur_offset = s;
               dur_reason =
                 Printf.sprintf "digest mismatch (recorded %s, computed %s)"
                   hex expect;
             })
      else body
  | _ -> text
