(** Hardened file I/O shared by every durable artifact HYDRA writes —
    summaries, solve-cache and run-scoped store entries, ledger records,
    audit reports.

    Two disciplines, one module:

    - {b atomicity}: {!write_atomic} builds the payload in a buffer,
      writes it to a temp file in the destination directory, fsyncs, and
      renames into place, so readers never observe a torn file and a
      crash mid-write leaves the previous version intact (plus, at
      worst, an orphan temp file: see {!is_temp_file});
    - {b integrity}: an optional digest trailer line
      ([#hydra-digest md5 <hex>]) over the preceding bytes lets
      {!read_verified} detect silent truncation or bit rot and raise a
      typed {!Corrupt} instead of handing garbage to a parser. *)

type corruption = {
  dur_path : string;
  dur_offset : int;  (** byte offset of the offending region, 0 if unknown *)
  dur_reason : string;
}

exception Corrupt of corruption

val mkdir_p : string -> unit
(** Create a directory and its parents; existing directories are fine. *)

val digest_trailer_prefix : string
(** The line prefix marking a digest trailer: ["#hydra-digest md5 "]. *)

val digest_trailer : string -> string
(** [digest_trailer body] is the trailer line (newline-terminated) whose
    digest covers [body]. *)

val write_atomic :
  ?fsync:bool -> ?digest:bool -> string -> (Buffer.t -> unit) -> unit
(** [write_atomic path fill] runs [fill] on an empty buffer, then
    publishes the buffer's contents at [path] atomically (temp file in
    the same directory + rename). [?digest] (default [false]) appends a
    digest trailer. [?fsync] (default [true]) fsyncs the temp file
    before the rename and the containing directory after it, so once
    the call returns the new content survives a crash under [path]; the
    directory fsync is best-effort (filesystems that refuse it on a
    directory are tolerated). With [~fsync:false] the write is atomic
    but a crash may lose it. *)

val is_temp_file : string -> bool
(** Whether a basename is one of {!write_atomic}'s temp files
    ([.hydra-durable*.tmp]). A kill between the temp file's creation and
    its rename leaves one behind; nothing reads it, and maintenance
    passes may delete it. *)

val read_verified : string -> string
(** Read [path] wholesale. When the content ends in a digest trailer,
    verify it and return the body with the trailer stripped; content
    without a trailer is returned as-is (pre-digest files stay
    readable). @raise Corrupt on digest mismatch or a malformed
    trailer; I/O errors ([Sys_error]) propagate unchanged. *)
