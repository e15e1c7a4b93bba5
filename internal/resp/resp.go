// Package resp implements the subset of the RESP2 wire protocol the
// spash-serve front end speaks: a zero-copy request reader (inline and
// multibulk commands), a reply writer, and a reply reader for the
// client side (spash-cli -connect and the replication wire transport
// share it).
//
// Zero copy here means the reader hands out argument slices that alias
// its internal buffer: between Release calls no key or value byte is
// copied on the way from the socket into the index's batch path. The
// price is an explicit lifetime — everything a Read*/TryRead* call
// returned is invalidated by the next Release, which the server issues
// once per drained burst, after the batch executed and its replies
// were written.
//
// The parser distinguishes recoverable from fatal protocol errors the
// way Redis does: a syntactically well-framed but semantically wrong
// command (unknown verb, wrong arity) is the command layer's business
// and costs an error reply; a malformed frame (bad type byte inside a
// multibulk, an unparsable length) desynchronises the stream, so the
// connection must close after the error reply — other connections are
// unaffected.
package resp

import (
	"errors"
	"fmt"
	"io"
)

// Protocol limits. A frame that exceeds them is a fatal error: the
// peer is either broken or hostile, and the stream cannot be trusted
// to resynchronise.
const (
	// MaxBulkLen bounds one bulk-string payload (Redis caps protos at
	// 512 MB; the index caps keys and values far lower, so 64 MB keeps
	// a hostile peer from ballooning the buffer while staying far above
	// any legal spash KV).
	MaxBulkLen = 64 << 20
	// MaxArgs bounds the element count of one multibulk command.
	MaxArgs = 1 << 20
	// MaxInlineLen bounds one inline command line.
	MaxInlineLen = 64 << 10
)

// Error is a protocol-level error. Fatal marks a framing desync: the
// reader cannot find the next command boundary and the connection must
// close (after reporting the error). Non-fatal protocol errors are
// reported and the stream keeps going.
type Error struct {
	Msg   string
	Fatal bool
}

func (e *Error) Error() string { return "resp: " + e.Msg }

// IsFatal reports whether err contains a fatal (desynchronising)
// protocol error. I/O errors are always fatal to a connection but are
// not protocol errors; they report false here.
func IsFatal(err error) bool {
	var pe *Error
	return errors.As(err, &pe) && pe.Fatal
}

func fatalf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Fatal: true}
}

// Reader incrementally parses commands (server side) or replies
// (client side) from a stream. Returned byte slices alias the internal
// buffer and stay valid until Release. Not safe for concurrent use.
type Reader struct {
	src io.Reader
	buf []byte
	// consumed < r: bytes whose parsed aliases are still live (freed by
	// Release); buf[r:w] is buffered unparsed input.
	consumed, r, w int

	args    [][]byte // argument-slice arena, reset by Release
	replies []Reply  // reply arena for arrays, reset by Release
	err     error    // sticky I/O error
}

// NewReader returns a Reader over src with the default buffer size.
func NewReader(src io.Reader) *Reader { return NewReaderSize(src, 64<<10) }

// NewReaderSize returns a Reader with an initial buffer of size bytes
// (the buffer grows as needed up to the protocol limits).
func NewReaderSize(src io.Reader, size int) *Reader {
	if size < 512 {
		size = 512
	}
	return &Reader{src: src, buf: make([]byte, size)}
}

// Release invalidates every slice handed out since the previous
// Release and lets the reader reclaim their buffer space. Callers
// release once per processed burst.
func (rd *Reader) Release() {
	rd.consumed = rd.r
	rd.args = rd.args[:0]
	rd.replies = rd.replies[:0]
}

// fill reads more input. It first compacts the buffer if no live
// aliases pin the front, then grows it if full (a single huge frame),
// then performs one blocking Read.
func (rd *Reader) fill() error {
	if rd.err != nil {
		return rd.err
	}
	if rd.consumed > 0 && rd.consumed == rd.r {
		// Everything parsed so far has been released, so no live alias
		// points into the buffer (aliases only ever point into the
		// parsed region buf[consumed:r], which is empty). Slide the
		// unparsed tail to the front. When consumed < r there ARE live
		// aliases and compaction would move bytes out from under them;
		// in that case we grow instead — the buffer is then bounded by
		// the size of one unreleased burst.
		copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.w -= rd.r
		rd.r, rd.consumed = 0, 0
	}
	if rd.w == len(rd.buf) {
		if len(rd.buf) >= MaxBulkLen+MaxInlineLen {
			rd.err = fatalf("frame exceeds %d bytes", MaxBulkLen+MaxInlineLen)
			return rd.err
		}
		nb := make([]byte, len(rd.buf)*2)
		copy(nb, rd.buf[:rd.w])
		rd.buf = nb
	}
	n, err := rd.src.Read(rd.buf[rd.w:])
	rd.w += n
	if err != nil && n == 0 {
		rd.err = err
		return err
	}
	return nil
}

// errIncomplete signals "need more bytes" internally; it never escapes
// the package.
var errIncomplete = errors.New("resp: incomplete")

// ReadCommand returns the next command's arguments, blocking on the
// stream as needed. Empty input lines are skipped. The slices alias
// the internal buffer until Release.
func (rd *Reader) ReadCommand() ([][]byte, error) {
	for {
		args, err := rd.tryCommand()
		if err == nil {
			if args == nil { // empty inline line: skip
				continue
			}
			return args, nil
		}
		if !errors.Is(err, errIncomplete) {
			return nil, err
		}
		if ferr := rd.fill(); ferr != nil {
			return nil, ferr
		}
	}
}

// TryReadCommand parses the next command from bytes already buffered,
// without touching the connection. ok is false when no complete
// command is buffered — the caller's burst is over.
func (rd *Reader) TryReadCommand() (args [][]byte, ok bool, err error) {
	for {
		args, err := rd.tryCommand()
		if err == nil {
			if args == nil {
				continue // empty inline line inside the burst
			}
			return args, true, nil
		}
		if errors.Is(err, errIncomplete) {
			return nil, false, nil
		}
		return nil, false, err
	}
}

// tryCommand parses one command from buf[r:w]. A nil, nil return is a
// skippable empty inline line. errIncomplete means more input is
// needed; the parse position is unchanged.
func (rd *Reader) tryCommand() ([][]byte, error) {
	if rd.r == rd.w {
		return nil, errIncomplete
	}
	if rd.buf[rd.r] == '*' {
		return rd.tryMultibulk()
	}
	return rd.tryInline()
}

// line returns the next CRLF- (or bare LF-) terminated line starting
// at pos, and the offset just past its terminator. The returned slice
// excludes the terminator.
func (rd *Reader) line(pos int) ([]byte, int, error) {
	for i := pos; i < rd.w; i++ {
		if rd.buf[i] == '\n' {
			end := i
			if end > pos && rd.buf[end-1] == '\r' {
				end--
			}
			return rd.buf[pos:end], i + 1, nil
		}
	}
	if rd.w-pos > MaxInlineLen {
		return nil, 0, fatalf("line exceeds %d bytes", MaxInlineLen)
	}
	return nil, 0, errIncomplete
}

// parseInt parses a decimal integer with optional leading '-'.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > (1<<62)/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// tryInline parses one inline command: a line of whitespace-separated
// words. Returns nil args for an empty line.
func (rd *Reader) tryInline() ([][]byte, error) {
	ln, next, err := rd.line(rd.r)
	if err != nil {
		return nil, err
	}
	rd.r = next
	start := len(rd.args)
	i := 0
	for i < len(ln) {
		for i < len(ln) && (ln[i] == ' ' || ln[i] == '\t') {
			i++
		}
		if i == len(ln) {
			break
		}
		j := i
		for j < len(ln) && ln[j] != ' ' && ln[j] != '\t' {
			j++
		}
		rd.args = append(rd.args, ln[i:j])
		i = j
	}
	if len(rd.args) == start {
		return nil, nil // empty line
	}
	return rd.args[start:], nil
}

// tryMultibulk parses one "*N\r\n($len\r\n<bytes>\r\n)×N" command.
// Any framing violation is fatal.
func (rd *Reader) tryMultibulk() ([][]byte, error) {
	pos := rd.r
	hdr, next, err := rd.line(pos + 1)
	if err != nil {
		return nil, err
	}
	n, ok := parseInt(hdr)
	if !ok || n < 0 || n > MaxArgs {
		return nil, fatalf("invalid multibulk length %q", hdr)
	}
	pos = next
	start := len(rd.args)
	for k := int64(0); k < n; k++ {
		if pos == rd.w {
			rd.args = rd.args[:start]
			return nil, errIncomplete
		}
		if rd.buf[pos] != '$' {
			rd.args = rd.args[:start]
			return nil, fatalf("expected '$', got %q", rd.buf[pos])
		}
		hdr, next, err := rd.line(pos + 1)
		if err != nil {
			rd.args = rd.args[:start]
			return nil, err
		}
		blen, ok := parseInt(hdr)
		if !ok || blen < 0 || blen > MaxBulkLen {
			rd.args = rd.args[:start]
			return nil, fatalf("invalid bulk length %q", hdr)
		}
		if int64(rd.w-next) < blen+2 {
			rd.args = rd.args[:start]
			return nil, errIncomplete
		}
		body := rd.buf[next : next+int(blen)]
		tail := rd.buf[next+int(blen) : next+int(blen)+2]
		if tail[0] != '\r' || tail[1] != '\n' {
			rd.args = rd.args[:start]
			return nil, fatalf("bulk string missing CRLF terminator")
		}
		rd.args = append(rd.args, body)
		pos = next + int(blen) + 2
	}
	rd.r = pos
	if n == 0 {
		return nil, nil // "*0\r\n": no command, skip
	}
	return rd.args[start:], nil
}

// --- replies (client side) ------------------------------------------

// ReplyKind discriminates RESP reply types.
type ReplyKind byte

const (
	SimpleString ReplyKind = '+'
	ErrorReply   ReplyKind = '-'
	Integer      ReplyKind = ':'
	BulkString   ReplyKind = '$'
	Array        ReplyKind = '*'
)

// Reply is one parsed RESP reply. Str aliases the reader's buffer
// (valid until Release); Null marks a null bulk string or null array.
type Reply struct {
	Kind ReplyKind
	Str  []byte
	Int  int64
	Arr  []Reply
	Null bool
}

// IsError reports whether the reply is an error reply.
func (r Reply) IsError() bool { return r.Kind == ErrorReply }

// Err returns the reply's error text as an error (nil for non-errors).
func (r Reply) Err() error {
	if r.Kind != ErrorReply {
		return nil
	}
	return fmt.Errorf("resp: server error: %s", r.Str)
}

// ReadReply parses one reply, blocking as needed. Slices alias the
// internal buffer until Release.
func (rd *Reader) ReadReply() (Reply, error) {
	for {
		rep, err := rd.tryReply()
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, errIncomplete) {
			return Reply{}, err
		}
		if ferr := rd.fill(); ferr != nil {
			return Reply{}, ferr
		}
	}
}

func (rd *Reader) tryReply() (Reply, error) {
	save := rd.r
	rep, err := rd.tryReplyAt()
	if err != nil {
		rd.r = save
		return Reply{}, err
	}
	return rep, nil
}

func (rd *Reader) tryReplyAt() (Reply, error) {
	if rd.r == rd.w {
		return Reply{}, errIncomplete
	}
	t := rd.buf[rd.r]
	switch ReplyKind(t) {
	case SimpleString, ErrorReply:
		ln, next, err := rd.line(rd.r + 1)
		if err != nil {
			return Reply{}, err
		}
		rd.r = next
		return Reply{Kind: ReplyKind(t), Str: ln}, nil
	case Integer:
		ln, next, err := rd.line(rd.r + 1)
		if err != nil {
			return Reply{}, err
		}
		n, ok := parseInt(ln)
		if !ok {
			return Reply{}, fatalf("invalid integer reply %q", ln)
		}
		rd.r = next
		return Reply{Kind: Integer, Int: n}, nil
	case BulkString:
		hdr, next, err := rd.line(rd.r + 1)
		if err != nil {
			return Reply{}, err
		}
		blen, ok := parseInt(hdr)
		if !ok || blen > MaxBulkLen {
			return Reply{}, fatalf("invalid bulk length %q", hdr)
		}
		if blen < 0 {
			rd.r = next
			return Reply{Kind: BulkString, Null: true}, nil
		}
		if int64(rd.w-next) < blen+2 {
			return Reply{}, errIncomplete
		}
		body := rd.buf[next : next+int(blen)]
		rd.r = next + int(blen) + 2
		return Reply{Kind: BulkString, Str: body}, nil
	case Array:
		hdr, next, err := rd.line(rd.r + 1)
		if err != nil {
			return Reply{}, err
		}
		n, ok := parseInt(hdr)
		if !ok || n > MaxArgs {
			return Reply{}, fatalf("invalid array length %q", hdr)
		}
		rd.r = next
		if n < 0 {
			return Reply{Kind: Array, Null: true}, nil
		}
		start := len(rd.replies)
		for k := int64(0); k < n; k++ {
			el, err := rd.tryReplyAt()
			if err != nil {
				rd.replies = rd.replies[:start]
				return Reply{}, err
			}
			rd.replies = append(rd.replies, el)
		}
		return Reply{Kind: Array, Arr: rd.replies[start:]}, nil
	default:
		return Reply{}, fatalf("unexpected reply type byte %q", t)
	}
}

// --- writer ---------------------------------------------------------

// Writer buffers RESP frames toward a stream. Not safe for concurrent
// use. Errors are sticky and surfaced by Flush.
type Writer struct {
	dst io.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer over dst.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{dst: dst, buf: make([]byte, 0, 16<<10)}
}

// Flush writes the buffered frames to the stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.dst.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		w.err = err
	}
	return err
}

func (w *Writer) appendInt(n int64) {
	var tmp [20]byte
	i := len(tmp)
	neg := n < 0
	if neg {
		n = -n
	}
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	if neg {
		i--
		tmp[i] = '-'
	}
	w.buf = append(w.buf, tmp[i:]...)
}

func (w *Writer) crlf() { w.buf = append(w.buf, '\r', '\n') }

// SimpleString writes "+s\r\n".
func (w *Writer) SimpleString(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.crlf()
}

// Error writes "-s\r\n". CR/LF inside s are replaced so a hostile
// message cannot smuggle a frame boundary.
func (w *Writer) Error(s string) {
	w.buf = append(w.buf, '-')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		w.buf = append(w.buf, c)
	}
	w.crlf()
}

// Int writes ":n\r\n".
func (w *Writer) Int(n int64) {
	w.buf = append(w.buf, ':')
	w.appendInt(n)
	w.crlf()
}

// Bulk writes "$len\r\n<b>\r\n".
func (w *Writer) Bulk(b []byte) {
	w.buf = append(w.buf, '$')
	w.appendInt(int64(len(b)))
	w.crlf()
	w.buf = append(w.buf, b...)
	w.crlf()
}

// BulkString writes a bulk string from a string.
func (w *Writer) BulkString(s string) {
	w.buf = append(w.buf, '$')
	w.appendInt(int64(len(s)))
	w.crlf()
	w.buf = append(w.buf, s...)
	w.crlf()
}

// NullBulk writes the RESP2 null bulk string "$-1\r\n".
func (w *Writer) NullBulk() { w.buf = append(w.buf, '$', '-', '1', '\r', '\n') }

// Array writes an array header for n following elements.
func (w *Writer) Array(n int) {
	w.buf = append(w.buf, '*')
	w.appendInt(int64(n))
	w.crlf()
}

// Command writes a full command as a multibulk array of the arguments.
func (w *Writer) Command(args ...[]byte) {
	w.Array(len(args))
	for _, a := range args {
		w.Bulk(a)
	}
}

// CommandString writes a full command from string arguments.
func (w *Writer) CommandString(args ...string) {
	w.Array(len(args))
	for _, a := range args {
		w.BulkString(a)
	}
}
