type t = {
  mutable probs : float array;
  mutable suf_p : float array;
  mutable suf_pv : float array;
  mutable slope : float array;
  mutable intercept : float array;
  mutable stack_line : int array;
  mutable stack_from : float array;
  mutable px : float array;
  mutable py : float array;
  mutable pex : float array;
  mutable pey : float array;
}

let create () =
  {
    probs = [||];
    suf_p = [||];
    suf_pv = [||];
    slope = [||];
    intercept = [||];
    stack_line = [||];
    stack_from = [||];
    px = [||];
    py = [||];
    pex = [||];
    pey = [||];
  }

let grown a n = if Array.length a >= n then a else Array.make (2 * n) 0.0
let grown_int a n = if Array.length a >= n then a else Array.make (2 * n) 0

let probs_scratch ws n =
  ws.probs <- grown ws.probs n;
  ws.probs

let pair_scratch ws nx ny =
  ws.px <- grown ws.px nx;
  ws.py <- grown ws.py ny;
  (ws.px, ws.py)

let moment_scratch ws nx ny =
  ws.pex <- grown ws.pex nx;
  ws.pey <- grown ws.pey ny;
  (ws.pex, ws.pey)

let suffix_scratch ws n =
  ws.suf_p <- grown ws.suf_p n;
  ws.suf_pv <- grown ws.suf_pv n;
  (ws.suf_p, ws.suf_pv)

let line_scratch ws n =
  ws.slope <- grown ws.slope n;
  ws.intercept <- grown ws.intercept n;
  (ws.slope, ws.intercept)

let stack_scratch ws n =
  ws.stack_line <- grown_int ws.stack_line n;
  ws.stack_from <- grown ws.stack_from n;
  (ws.stack_line, ws.stack_from)
