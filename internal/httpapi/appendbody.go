package httpapi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"modelardb"
	"modelardb/internal/core"
)

// The /api/v1/append body is scanned by hand instead of by
// encoding/json, whose reflection costs several times what the
// database spends ingesting the points. The scanner accepts exactly
// the bodies encoding/json accepts (FuzzAppendDecoderMatchesJSON) and
// decodes a point as json.Unmarshal decodes it into a struct with tid,
// source, ts and value fields: keys match case-insensitively, the last
// of a repeated key wins, unknown members are skipped and null leaves a
// field as it was. The top level has its own rules: "points" and
// "flush" match exactly, every "points" array ingests, and flush is
// the OR of the "flush" members.

const (
	// appendReadSize is the decoder's read buffer. A single string or
	// number longer than it grows the buffer for that request.
	appendReadSize = 16 << 10
	// maxJSONDepth is encoding/json's nesting limit, kept so that both
	// refuse the same bodies.
	maxJSONDepth = 10000
)

// The fields of a point, as indexes into pointFields.
const (
	fieldOther = iota - 1
	fieldTid
	fieldTS
	fieldValue
	fieldSource
)

var pointFields = [...][]byte{fieldTid: []byte("tid"), fieldTS: []byte("ts"), fieldValue: []byte("value"), fieldSource: []byte("source")}

var errBodyShape = errors.New("body must be a point array or an object with a points field")

// appendDecoder scans one append body. Decoders are recycled through
// appendDecoders, so a request allocates neither a read buffer nor a
// batch: the batch is handed to Backend.AppendBatch, which must not
// retain it.
type appendDecoder struct {
	r io.Reader
	// buf[pos:end] holds the read but unscanned bytes of the body;
	// buf[0] is byte off of the body.
	buf      []byte
	pos, end int
	off      int64
	// eof is set once the reader has returned an error; rerr is that
	// error unless it was io.EOF.
	eof  bool
	rerr error
	// key holds the last member name that needed unquoting; source the
	// current point's source; last the last source resolved and lastTid
	// its Tid.
	key, source, last []byte
	lastTid           modelardb.Tid
	ship              core.Shipper
	resolve           func(string) (modelardb.Tid, bool)
}

var appendDecoders = sync.Pool{New: func() any {
	return &appendDecoder{buf: make([]byte, appendReadSize)}
}}

// release clears the decoder and returns it to the pool, unless a
// pathological token grew one of its buffers.
func (d *appendDecoder) release() {
	if len(d.buf) > appendReadSize || cap(d.key) > appendReadSize || cap(d.source) > appendReadSize {
		return
	}
	d.ship.Reset()
	*d = appendDecoder{buf: d.buf, key: d.key[:0], source: d.source[:0], last: d.last[:0], ship: d.ship}
	appendDecoders.Put(d)
}

// decode scans the append body r, resolving a point's source through
// resolve, and ships the points in order to sink through d.ship, which
// counts the points kept. It returns the body's flush flag.
func (d *appendDecoder) decode(r io.Reader, resolve func(string) (modelardb.Tid, bool), sink func([]modelardb.DataPoint) error) (flush bool, err error) {
	d.r, d.resolve, d.ship.Sink = r, resolve, sink
	c, err := d.want()
	if err != nil {
		return false, err
	}
	switch c {
	case '[':
		err = d.points(1)
	case '{':
		err = d.object(topField, func(field int, c byte) error {
			switch field {
			case fieldPoints:
				if c != '[' {
					return errors.New("points must be an array")
				}
				return d.points(2)
			case fieldFlush:
				switch c {
				case 't':
					flush = true
					return d.literal("rue")
				case 'f':
					return d.literal("alse")
				case 'n':
					return d.literal("ull")
				}
				return errors.New("flush must be a boolean")
			}
			return d.skip(c, 1)
		})
	default:
		return false, errBodyShape
	}
	if err != nil {
		return false, err
	}
	if _, err := d.next(); err != io.EOF {
		if err == nil {
			err = d.syntax(d.pos-1, "data after the body")
		}
		return false, err
	}
	return flush, d.ship.Flush()
}

// The members of the top-level object that are not skipped.
const (
	fieldPoints = iota
	fieldFlush
)

func topField(key []byte) int {
	switch string(key) {
	case "points":
		return fieldPoints
	case "flush":
		return fieldFlush
	}
	return fieldOther
}

// pointField matches a point's member name as encoding/json matches a
// struct field's: exactly, or else under Unicode case folding.
func pointField(key []byte) int {
	for f, name := range &pointFields {
		if string(key) == string(name) {
			return f
		}
	}
	for f, name := range &pointFields {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return fieldOther
}

// points scans a point array, whose [ has been read and which is
// container number depth of the body, into d.ship.
func (d *appendDecoder) points(depth int) error {
	return d.array(func(c byte) error {
		p, err := d.point(c, depth+1)
		if err != nil {
			return err
		}
		return d.ship.Add(p)
	})
}

// point scans one point, whose first byte c has been read and which
// would be container number depth, and resolves its series.
func (d *appendDecoder) point(c byte, depth int) (modelardb.DataPoint, error) {
	var tid, ts int64
	var value float64
	d.source = d.source[:0]
	var err error
	switch c {
	case 'n': // null: a point without fields, refused below
		err = d.literal("ull")
	case '{':
		err = d.object(pointField, func(field int, c byte) error {
			switch {
			case c == 'n' && field != fieldOther:
				return d.literal("ull")
			case field == fieldTid:
				return d.integer(c, "tid", &tid)
			case field == fieldTS:
				return d.integer(c, "ts", &ts)
			case field == fieldValue:
				return d.float(c, &value)
			case field == fieldSource:
				if c != '"' {
					return errors.New("invalid point: source must be a string")
				}
				s, err := d.str(&d.source)
				d.source = append(d.source[:0], s...)
				return err
			}
			return d.skip(c, depth)
		})
	default:
		err = errors.New("invalid point: want an object")
	}
	p := modelardb.DataPoint{Tid: modelardb.Tid(tid), TS: ts, Value: float32(value)}
	switch {
	case err != nil:
		return p, err
	case int64(p.Tid) != tid:
		return p, fmt.Errorf("invalid point: tid %d is out of range", tid)
	case tid != 0:
		return p, nil
	}
	if len(d.source) == 0 {
		return p, errors.New("point needs a tid or a source")
	}
	if !bytes.Equal(d.source, d.last) {
		t, ok := d.resolve(string(d.source))
		if !ok {
			return p, fmt.Errorf("unknown series source %q", d.source)
		}
		d.last, d.lastTid = append(d.last[:0], d.source...), t
	}
	p.Tid = d.lastTid
	return p, nil
}

// integer parses the number starting with c into *dst by
// strconv.ParseInt's rules: a fraction or an exponent is refused.
func (d *appendDecoder) integer(c byte, name string, dst *int64) error {
	tok, err := d.number(c)
	if err != nil {
		return err
	}
	if n, ok := smallInt(tok); ok {
		*dst = n
		return nil
	}
	if *dst, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
		return fmt.Errorf("invalid point: %s %s is not an int64", name, tok)
	}
	return nil
}

// smallInt parses tok, a valid JSON number, when it is an integer of at
// most 18 digits, which cannot overflow.
func smallInt(tok []byte) (int64, bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		n = -n
	}
	return n, true
}

// float parses the number starting with c into *dst as a float64,
// exactly as encoding/json does; the caller narrows it to float32.
func (d *appendDecoder) float(c byte, dst *float64) error {
	tok, err := d.number(c)
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return fmt.Errorf("invalid point: value %s is out of range", tok)
	}
	return nil
}

// object scans an object whose { has been read. It matches each
// member's name with match, or skips the name when match is nil, and
// calls value with the match and the first byte of the member's value,
// which value must scan.
func (d *appendDecoder) object(match func([]byte) int, value func(field int, c byte) error) error {
	c, err := d.want()
	if err != nil || c == '}' {
		return err
	}
	for {
		if c != '"' {
			return d.syntax(d.pos-1, "want a member name")
		}
		field := fieldOther
		if match == nil {
			_, _, err = d.scanString()
		} else {
			var key []byte
			key, err = d.str(&d.key)
			field = match(key)
		}
		if err != nil {
			return err
		}
		if c, err = d.want(); err == nil && c != ':' {
			err = d.syntax(d.pos-1, "want : after a member name")
		}
		if err != nil {
			return err
		}
		if c, err = d.want(); err != nil {
			return err
		}
		if err := value(field, c); err != nil {
			return err
		}
		var more bool
		if c, more, err = d.after('}'); !more {
			return err
		}
	}
}

// array scans an array whose [ has been read, calling value with the
// first byte of each element, which value must scan.
func (d *appendDecoder) array(value func(c byte) error) error {
	c, err := d.want()
	if err != nil || c == ']' {
		return err
	}
	for {
		if err := value(c); err != nil {
			return err
		}
		var more bool
		if c, more, err = d.after(']'); !more {
			return err
		}
	}
}

// after scans what follows a value inside a container that end
// closes: end itself, or a comma and the first byte of the next value,
// which it returns with more set.
func (d *appendDecoder) after(end byte) (c byte, more bool, err error) {
	c, err = d.want()
	switch {
	case err != nil || c == end:
		return 0, false, err
	case c != ',':
		return 0, false, d.syntax(d.pos-1, "want , or "+string(end))
	}
	c, err = d.want()
	return c, err == nil, err
}

// skip scans and discards a value whose first byte c has been read,
// inside depth containers.
func (d *appendDecoder) skip(c byte, depth int) error {
	switch c {
	case '"':
		_, _, err := d.scanString()
		return err
	case 't':
		return d.literal("rue")
	case 'f':
		return d.literal("alse")
	case 'n':
		return d.literal("ull")
	case '[', '{':
		if depth+1 > maxJSONDepth {
			return d.syntax(d.pos-1, "nesting too deep")
		}
		if c == '[' {
			return d.array(func(c byte) error { return d.skip(c, depth+1) })
		}
		return d.object(nil, func(_ int, c byte) error { return d.skip(c, depth+1) })
	}
	if _, err := d.number(c); err != nil {
		return d.syntax(d.pos-1, "invalid value")
	}
	return nil
}

// number scans a number whose first byte c has been read and returns
// its text, valid until the next read.
func (d *appendDecoder) number(c byte) ([]byte, error) {
	if c != '-' && (c < '0' || c > '9') {
		return nil, errors.New("invalid point: want a number")
	}
	start, i := d.pos-1, d.pos
	for {
		for i < d.end && isNumberByte(d.buf[i]) {
			i++
		}
		if i < d.end || !d.more(&start, &i) {
			break
		}
	}
	d.pos = i
	tok := d.buf[start:i]
	if !validNumber(tok) {
		return nil, d.syntax(start, "invalid number")
	}
	return tok, nil
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// validNumber reports whether s is one JSON number.
func validNumber(s []byte) bool {
	i := 0
	if s[0] == '-' {
		i++
	}
	switch {
	case i == len(s):
		return false
	case s[i] == '0':
		i++
	default:
		if i = skipDigits(s, i); i == 0 || s[i-1] == '-' {
			return false
		}
	}
	if i < len(s) && s[i] == '.' {
		if j := skipDigits(s, i+1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if j := skipDigits(s, i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(s)
}

// skipDigits returns the index of the first byte of s from i on that is
// not a decimal digit.
func skipDigits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// str scans a string whose opening quote has been read and returns it
// unquoted as encoding/json unquotes it. A string without escapes and
// non-ASCII bytes is returned in place, valid until the next read;
// any other is unquoted into *scratch.
func (d *appendDecoder) str(scratch *[]byte) ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	*scratch = appendUnquoted((*scratch)[:0], raw)
	return *scratch, nil
}

// scanString scans a string whose opening quote has been read and
// returns its raw text between the quotes, valid until the next read,
// and whether that text is plain: free of escapes and non-ASCII bytes.
func (d *appendDecoder) scanString() (raw []byte, plain bool, err error) {
	start, i := d.pos, d.pos
	plain = true
	for {
	scan:
		for i < d.end {
			switch c := d.buf[i]; {
			case ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\':
				i++
			case c == '"':
				d.pos = i + 1
				return d.buf[start:i], plain, nil
			case c == '\\':
				plain = false
				n := 2
				if i+1 < d.end && d.buf[i+1] == 'u' {
					n = 6
				}
				if i+n > d.end {
					break scan // read on for the rest of the escape
				}
				if !validEscape(d.buf[i : i+n]) {
					return nil, false, d.syntax(i, "invalid escape in string")
				}
				i += n
			case c < ' ':
				return nil, false, d.syntax(i, "control character in string")
			default:
				plain = false
				i++
			}
		}
		if !d.more(&start, &i) {
			return nil, false, d.endErr()
		}
	}
}

// validEscape reports whether e, a backslash and the bytes after it
// (six for \u), is one escape of the JSON grammar.
func validEscape(e []byte) bool {
	switch e[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	case 'u':
		for _, c := range e[2:] {
			if _, ok := unhex(c); !ok {
				return false
			}
		}
		return true
	}
	return false
}

func unhex(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// appendUnquoted appends s, the text of a string with valid escapes,
// unquoted by encoding/json's rules: a \u escape of a lone surrogate
// and every byte of invalid UTF-8 become U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	u4 := func(e []byte) rune {
		if len(e) < 6 || e[0] != '\\' || e[1] != 'u' {
			return -1
		}
		var r rune
		for _, c := range e[2:6] {
			v, _ := unhex(c)
			r = r<<4 | v
		}
		return r
	}
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := u4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, u4(s[i:])); pair != utf8.RuneError {
					dst = utf8.AppendRune(dst, pair)
					i += 6
					continue
				}
				r = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			dst = append(dst, unescape[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// literal scans rest, the bytes of true, false or null after the
// first.
func (d *appendDecoder) literal(rest string) error {
	start, i := d.pos, d.pos
	for d.end-i < len(rest) {
		if !d.more(&start, &i) {
			return d.endErr()
		}
	}
	if string(d.buf[i:i+len(rest)]) != rest {
		return d.syntax(i-1, "invalid literal")
	}
	d.pos = i + len(rest)
	return nil
}

// want is next, with the end of the body an error.
func (d *appendDecoder) want() (byte, error) {
	if d.pos < d.end { // the common case, inlined
		if c := d.buf[d.pos]; c > ' ' {
			d.pos++
			return c, nil
		}
	}
	c, err := d.next()
	if err == io.EOF {
		err = d.endErr()
	}
	return c, err
}

// next reads the next byte that is not white space. It returns io.EOF
// at the end of the body, or the error that ended the body early.
func (d *appendDecoder) next() (byte, error) {
	for {
		for d.pos < d.end {
			c := d.buf[d.pos]
			d.pos++
			switch c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, nil
			}
		}
		start, i := d.end, d.end
		if !d.more(&start, &i) {
			if d.rerr != nil {
				return 0, d.endErr()
			}
			return 0, io.EOF
		}
		d.pos = i
	}
}

// more reads on into buf, keeping buf[*start:end] — the token being
// scanned — and moving it to the front of buf, which grows only when
// the token fills it; *start and *i are moved with it. It reports
// false at the end of the body.
func (d *appendDecoder) more(start, i *int) bool {
	if d.eof {
		return false
	}
	if *start > 0 {
		d.end = copy(d.buf, d.buf[*start:d.end])
		d.off += int64(*start)
		d.pos -= *start
		*i -= *start
		*start = 0
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.eof = true
			if err != io.EOF {
				d.rerr = err
			}
		}
		if n > 0 || d.eof {
			return n > 0
		}
	}
}

// endErr is the error of a body that ends where a value must go on.
func (d *appendDecoder) endErr() error {
	if d.rerr != nil {
		return fmt.Errorf("read body: %w", d.rerr)
	}
	return errors.New("invalid JSON: unexpected end of body")
}

// syntax is the error of invalid JSON at buf[at].
func (d *appendDecoder) syntax(at int, what string) error {
	return fmt.Errorf("invalid JSON at byte %d: %s", d.off+int64(at), what)
}
