(* The factorization behind factor.mli, which states its contract.

   B is kept as elementary operations ("etas"), each a pivot index p
   and a divisor followed by its entries, laid out one after another in
   flat index and value arrays (a "file"):

   - L: one column eta per elimination step with a nonempty multiplier
     column (divisor one). FTRAN applies them in step order.
   - U: one per step, the pivot column's entries in the rows pivoted
     before it (divisor: the pivot). FTRAN applies them in reverse
     step order, which is back substitution.
   - updates: one per simplex pivot, the entering column's FTRAN d at
     the leaving position r (divisor d_r), applied after L and U.

   L and U work in constraint-row order, the updates in basis-position
   order; the pivot sequence maps one to the other. BTRAN runs the
   updates as row operations in the opposite order. L and U are also
   filed by row: the row eta of a step holds its pivot row's entries,
   each indexed by the pivot row of the step whose column holds it.
   BTRAN applies U's row etas in step order and L's in reverse, as
   column operations, so a step whose entry is zero is skipped. *)

module Obs = Hydra_obs.Obs

module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val zero_at : t array -> int -> bool
  val magnitude_at : t array -> int -> float
  val divide : t array -> int -> int -> t -> unit
  val schur : t array -> int array -> int -> int -> t array -> t -> unit
  val scatter : t array -> int array -> t array -> int -> int -> unit
  val gather : t array -> int array -> t array -> unit
  val col_ops :
    rev:bool -> t array -> int array -> t array -> int array -> int -> unit

  val row_op : t array -> int array -> t array -> int -> int -> unit
  val eta_of : t array -> int -> int array * t array
end

let refactor_every = 64

(* a pivot chosen for sparsity must hold at least this fraction of the
   largest magnitude in its active column *)
let threshold = 0.01

(* the Markowitz search looks at most at this many of the sparsest
   active columns *)
let search_columns = 4

module Make (N : NUM) = struct
  (* A file of etas in flat arrays: eta e spans positions start.(e) to
     start.(e + 1) - 1 of [idx] and [vals], its pivot index and divisor
     first, then its entries. A file grows as etas are appended. *)
  type file = {
    mutable idx : int array;
    mutable vals : N.t array;
    mutable start : int array;
    mutable n : int;  (* etas *)
  }

  type t = {
    l : file;  (* by column, in step order *)
    u : file;  (* by column, one per step *)
    lrow : file;  (* by row, in step order *)
    urow : file;  (* by row, one per step *)
    row_of : int array;  (* basis position -> its pivot row *)
    pos_of : int array;  (* pivot row -> basis position *)
    scratch : N.t array;
    upd : file;
  }

  exception Singular

  let file size etas =
    {
      idx = Array.make size 0;
      vals = Array.make size N.zero;
      start = Array.make (etas + 1) 0;
      n = 0;
    }

  (* append the eta with pivot p, divisor d.(dpos) and the entries
     rows.(k), vals.(k) for a <= k < b *)
  let append f p d dpos rows vals a b =
    let o = f.start.(f.n) in
    let size = o + 1 + b - a in
    if size > Array.length f.idx then begin
      let cap = max size (2 * Array.length f.idx) in
      let i = Array.make cap 0 and v = Array.make cap N.zero in
      Array.blit f.idx 0 i 0 o;
      Array.blit f.vals 0 v 0 o;
      f.idx <- i;
      f.vals <- v
    end;
    if f.n + 1 = Array.length f.start then begin
      let st = Array.make (2 * (f.n + 1)) 0 in
      Array.blit f.start 0 st 0 (f.n + 1);
      f.start <- st
    end;
    f.idx.(o) <- p;
    Array.blit d dpos f.vals o 1;
    Array.blit rows a f.idx (o + 1) (b - a);
    Array.blit vals a f.vals (o + 1) (b - a);
    f.n <- f.n + 1;
    f.start.(f.n) <- size

  (* The entries of the column file [c] filed by row. Row eta t has
     pivot step_row.(t) and an entry for each of c's entries in that
     row, indexed by its eta's pivot. When [own], c holds one eta per
     step and row eta t, one per step too, takes the divisor of c's eta
     t; otherwise c's divisors are all one, and only rows that hold an
     entry get an eta. [step_of.(i)] is the step that pivoted row i. *)
  let by_row ~own step_row step_of c =
    let m = Array.length step_row in
    let count = Array.make m 0 in
    for e = 0 to c.n - 1 do
      for k = c.start.(e) + 1 to c.start.(e + 1) - 1 do
        let t = step_of.(c.idx.(k)) in
        count.(t) <- count.(t) + 1
      done
    done;
    let kept t = own || count.(t) > 0 in
    let n = Array.fold_left (fun n k -> if own || k > 0 then n + 1 else n) 0 count in
    (* [at.(t)]: row eta t's next free position *)
    let start = Array.make (n + 1) 0 and at = Array.make m 0 and e = ref 0 in
    for t = 0 to m - 1 do
      if kept t then begin
        at.(t) <- start.(!e);
        start.(!e + 1) <- start.(!e) + 1 + count.(t);
        incr e
      end
    done;
    (* the positions in c of each value, then one gather *)
    let src = Array.make start.(n) 0 and idx = Array.make start.(n) 0 in
    let put t i k =
      idx.(at.(t)) <- i;
      src.(at.(t)) <- k;
      at.(t) <- at.(t) + 1
    in
    for t = 0 to m - 1 do
      if kept t then put t step_row.(t) (if own then c.start.(t) else c.start.(0))
    done;
    for e = 0 to c.n - 1 do
      let p = c.idx.(c.start.(e)) in
      for k = c.start.(e) + 1 to c.start.(e + 1) - 1 do
        put step_of.(c.idx.(k)) p k
      done
    done;
    let vals = Array.make start.(n) N.zero in
    N.gather c.vals src vals;
    { idx; vals; start; n }

  let factorize ~m idx vals basis =
    Obs.with_span "lp.factor" @@ fun () ->
    (* The active submatrix by column: column k's entries are rows
       cr.(k) and values cv.(k). The first cu.(k) are its U entries, in
       rows already pivoted; those up to cn.(k) are active. *)
    let cr = Array.make m [||] and cv = Array.make m [||] in
    let cu = Array.make m 0 and cn = Array.make m 0 in
    (* per row: its number of active entries, and the columns that have
       or had one there (skipped, and pruned, when read) *)
    let rcount = Array.make m 0 in
    let rcols = Array.make m [||] and rlen = Array.make m 0 in
    let add_to_row i k =
      if rlen.(i) = Array.length rcols.(i) then begin
        let a = Array.make (max 4 (2 * rlen.(i))) 0 in
        Array.blit rcols.(i) 0 a 0 rlen.(i);
        rcols.(i) <- a
      end;
      rcols.(i).(rlen.(i)) <- k;
      rlen.(i) <- rlen.(i) + 1
    in
    (* row i's last seen column position, and whose: sums duplicates on
       load, and marks the rows a Schur update reached *)
    let at = Array.make m 0 and mark = Array.make m (-1) in
    let tick = ref (-1) in
    Array.iteri
      (fun k bk ->
        let ri = idx.(bk) and rv = vals.(bk) in
        let r = Array.copy ri and v = Array.copy rv and n = ref 0 in
        incr tick;
        for e = 0 to Array.length ri - 1 do
          let i = ri.(e) in
          if mark.(i) = !tick then v.(at.(i)) <- N.add v.(at.(i)) rv.(e)
          else begin
            mark.(i) <- !tick;
            at.(i) <- !n;
            if e > !n then begin
              r.(!n) <- i;
              Array.blit rv e v !n 1
            end;
            incr n
          end
        done;
        let len = ref 0 in
        for e = 0 to !n - 1 do
          if not (N.zero_at v e) then begin
            if e > !len then begin
              r.(!len) <- r.(e);
              Array.blit v e v !len 1
            end;
            incr len
          end
        done;
        cr.(k) <- r;
        cv.(k) <- v;
        cn.(k) <- !len;
        for e = 0 to !len - 1 do
          rcount.(r.(e)) <- rcount.(r.(e)) + 1
        done)
      basis;
    Array.iteri (fun i c -> rcols.(i) <- Array.make c 0) rcount;
    Array.iteri
      (fun k r ->
        for e = 0 to cn.(k) - 1 do
          add_to_row r.(e) k
        done)
      cr;
    (* the active columns, bucketed by count in doubly linked lists *)
    let head = Array.make (m + 1) (-1) in
    let next = Array.make m (-1) and prev = Array.make m (-1) in
    let bucket = Array.make m 0 in
    let link k =
      let c = cn.(k) - cu.(k) in
      if c = 0 then raise Singular;
      bucket.(k) <- c;
      prev.(k) <- -1;
      next.(k) <- head.(c);
      if head.(c) >= 0 then prev.(head.(c)) <- k;
      head.(c) <- k
    in
    let unlink k =
      if prev.(k) >= 0 then next.(prev.(k)) <- next.(k)
      else head.(bucket.(k)) <- next.(k);
      if next.(k) >= 0 then prev.(next.(k)) <- prev.(k)
    in
    for k = m - 1 downto 0 do
      link k
    done;
    (* row singleton candidates, checked again when popped: a row whose
       count becomes 1 is pushed *)
    let rstack = ref [] in
    let row_count i d =
      rcount.(i) <- rcount.(i) + d;
      if rcount.(i) = 1 then rstack := i :: !rstack
    in
    for i = m - 1 downto 0 do
      row_count i 0
    done;
    let col_done = Array.make m false and row_done = Array.make m false in
    (* the position of row i among column k's active entries, or -1 *)
    let find k i =
      let r = cr.(k) in
      let rec go e = if e >= cn.(k) then -1 else if r.(e) = i then e else go (e + 1) in
      go cu.(k)
    in
    let swap k e f =
      if e <> f then begin
        let r = cr.(k) and v = cv.(k) in
        let i = r.(e) in
        r.(e) <- r.(f);
        r.(f) <- i;
        let x = v.(e) in
        v.(e) <- v.(f);
        v.(f) <- x
      end
    in
    (* a zero entry in row i at the end of column k, which has at least
       its U entry in row p *)
    let fill k i =
      let n = cn.(k) in
      if n = Array.length cr.(k) then begin
        let r = Array.make (2 * n) 0 and v = Array.make (2 * n) N.zero in
        Array.blit cr.(k) 0 r 0 n;
        Array.blit cv.(k) 0 v 0 n;
        cr.(k) <- r;
        cv.(k) <- v
      end;
      cr.(k).(n) <- i;
      cv.(k).(n) <- N.zero;
      cn.(k) <- n + 1
    in
    (* the threshold test's bound: one pass over the column *)
    let bound k =
      let big = ref 0.0 in
      for e = cu.(k) to cn.(k) - 1 do
        big := Float.max !big (N.magnitude_at cv.(k) e)
      done;
      threshold *. !big
    in
    (* a row singleton: its column is the one live entry of its list *)
    let rec row_singleton () =
      match !rstack with
      | [] -> None
      | i :: rest ->
          rstack := rest;
          if row_done.(i) || rcount.(i) <> 1 then row_singleton ()
          else begin
            let rec live x =
              let k = rcols.(i).(x) in
              if col_done.(k) then live (x + 1)
              else match find k i with -1 -> live (x + 1) | e -> (k, e)
            in
            let k, e = live 0 in
            rcols.(i).(0) <- k;
            rlen.(i) <- 1;
            if N.magnitude_at cv.(k) e >= bound k then Some (i, k, e)
            else row_singleton ()
          end
    in
    (* Markowitz: the admissible entry of least
       (row count - 1) * (column count - 1) among the sparsest columns,
       ties to the lower row *)
    let markowitz () =
      let c = ref 2 in
      while head.(!c) < 0 do
        incr c
      done;
      let c = !c in
      let best = ref (-1, -1, -1) and cost = ref max_int in
      let k = ref head.(c) and seen = ref 0 in
      while !k >= 0 && !seen < search_columns do
        let k' = !k and b = bound !k in
        for e = cu.(k') to cn.(k') - 1 do
          let i = cr.(k').(e) in
          let x = (rcount.(i) - 1) * (c - 1) in
          let bi, _, _ = !best in
          if (x < !cost || (x = !cost && i < bi)) && N.magnitude_at cv.(k') e >= b
          then begin
            cost := x;
            best := (i, k', e)
          end
        done;
        incr seen;
        k := next.(k')
      done;
      (* no admissible entry: the magnitudes are not numbers *)
      if !cost = max_int then raise Singular;
      !best
    in
    let nnz = Array.fold_left ( + ) 0 cn in
    let u = file (m + nnz) m and l = file nnz m in
    let one = [| N.one |] in
    let step_row = Array.make m 0 and step_of = Array.make m 0 in
    let row_of = Array.make m 0 and pos_of = Array.make m 0 in
    (* the current step's multipliers, by row; zero elsewhere *)
    let lw = Array.make m N.zero in
    let ucols = Array.make m 0 in
    for s = 0 to m - 1 do
      let p, q, e =
        if head.(1) >= 0 then
          let q = head.(1) in
          (cr.(q).(cu.(q)), q, cu.(q))
        else match row_singleton () with Some x -> x | None -> markowitz ()
      in
      let lo = cu.(q) and hi = cn.(q) in
      swap q e lo;
      append u p cv.(q) lo cr.(q) cv.(q) 0 lo;
      (* column q leaves; its active entries below the pivot, over it,
         are L's multipliers *)
      unlink q;
      col_done.(q) <- true;
      for f = lo to hi - 1 do
        row_count cr.(q).(f) (-1)
      done;
      let l0 = l.start.(l.n) + 1 and nl = hi - lo - 1 in
      if nl > 0 then begin
        append l p one 0 cr.(q) cv.(q) (lo + 1) hi;
        N.divide l.vals l0 (l0 + nl) cv.(q).(lo)
      end;
      (* row p leaves: its entries join U, each at the end of its
         column's U entries *)
      row_done.(p) <- true;
      let nu = ref 0 in
      for x = 0 to rlen.(p) - 1 do
        let k = rcols.(p).(x) in
        if not col_done.(k) then
          match find k p with
          | -1 -> ()
          | f ->
              swap k f cu.(k);
              cu.(k) <- cu.(k) + 1;
              ucols.(!nu) <- k;
              incr nu
      done;
      (* the Schur complement: each such column k loses, in every row i
         of L, l_i times its entry in row p; a row it had no entry in
         is fill-in, an entry that cancels leaves *)
      N.scatter lw l.idx l.vals l0 (l0 + nl);
      for x = 0 to !nu - 1 do
        let k = ucols.(x) in
        unlink k;
        if nl > 0 then begin
          incr tick;
          for f = cu.(k) to cn.(k) - 1 do
            mark.(cr.(k).(f)) <- !tick
          done;
          for f = l0 to l0 + nl - 1 do
            let i = l.idx.(f) in
            if mark.(i) <> !tick then begin
              fill k i;
              row_count i 1;
              add_to_row i k
            end
          done;
          let r = cr.(k) and v = cv.(k) in
          N.schur v r cu.(k) cn.(k) lw v.(cu.(k) - 1);
          let f = ref cu.(k) in
          while !f < cn.(k) do
            if N.zero_at v !f then begin
              let last = cn.(k) - 1 in
              row_count r.(!f) (-1);
              r.(!f) <- r.(last);
              Array.blit v last v !f 1;
              cn.(k) <- last
            end
            else incr f
          done
        end;
        link k
      done;
      for f = l0 to l0 + nl - 1 do
        lw.(l.idx.(f)) <- N.zero
      done;
      step_row.(s) <- p;
      step_of.(p) <- s;
      row_of.(q) <- p;
      pos_of.(p) <- q
    done;
    {
      l;
      u;
      lrow = by_row ~own:false step_row step_of l;
      urow = by_row ~own:true step_row step_of u;
      row_of;
      pos_of;
      scratch = Array.make m N.zero;
      upd = file m refactor_every;
    }

  let col_ops ~rev w f = N.col_ops ~rev w f.idx f.vals f.start f.n

  let permute f w perm =
    N.gather w perm f.scratch;
    Array.blit f.scratch 0 w 0 (Array.length w)

  let ftran f w =
    col_ops ~rev:false w f.l;
    col_ops ~rev:true w f.u;
    permute f w f.row_of;
    col_ops ~rev:false w f.upd

  let btran f w =
    let u = f.upd in
    for e = u.n - 1 downto 0 do
      N.row_op w u.idx u.vals u.start.(e) u.start.(e + 1)
    done;
    permute f w f.pos_of;
    col_ops ~rev:false w f.urow;
    col_ops ~rev:true w f.lrow

  let update f r d =
    let idx, vals = N.eta_of d r in
    append f.upd r vals 0 idx vals 1 (Array.length idx)

  let etas f = f.upd.n
end
