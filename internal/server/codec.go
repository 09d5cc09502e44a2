package server

// The hand-written JSON codec of the three response types that carry records
// and rows: SearchResponse (search and history pages), SubmitResponse and
// BatchSubmitResponse. They are most of the bytes the /v1 API serves, and
// encoding/json's reflection over them, client decode included, was the
// largest cost of a browse. AppendJSON writes exactly the bytes
// json.NewEncoder(w).Encode writes; DecodeJSON reads a whole body in one pass
// into what json.Unmarshal returns. encoding/json stays their oracle
// (codec_test.go) and the codec of every other body.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// AppendJSON appends r to b as json.NewEncoder(w).Encode(r) writes it,
// trailing newline included. On error b holds a partial body.
func (r SearchResponse) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"matches":`...)
	b, err := appendList(b, r.Matches, appendMatch)
	if err != nil {
		return b, err
	}
	if r.NextCursor != "" {
		b = append(b, `,"nextCursor":`...)
		b = appendString(b, r.NextCursor)
	}
	return append(b, '}', '\n'), nil
}

// AppendJSON appends r to b as json.NewEncoder(w).Encode(r) writes it,
// trailing newline included. On error b holds a partial body.
func (r SubmitResponse) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendSubmit(b, &r)
	return append(b, '\n'), err
}

// AppendJSON appends r to b as json.NewEncoder(w).Encode(r) writes it,
// trailing newline included. On error b holds a partial body.
func (r BatchSubmitResponse) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"results":`...)
	b, err := appendList(b, r.Results, appendBatchItem)
	if err != nil {
		return b, err
	}
	return append(b, '}', '\n'), nil
}

// appendList appends a JSON array of items, or null for a nil slice.
func appendList[T any](b []byte, items []T, elem func([]byte, *T) ([]byte, error)) ([]byte, error) {
	if items == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, &items[i]); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendMatch(b []byte, m *MatchDTO) ([]byte, error) {
	b = append(b, `{"query":`...)
	b, err := appendQuery(b, &m.Query)
	if err != nil {
		return b, err
	}
	b = append(b, `,"score":`...)
	if b, err = appendFloat(b, m.Score); err != nil {
		return b, err
	}
	if m.Why != "" {
		b = append(b, `,"why":`...)
		b = appendString(b, m.Why)
	}
	return append(b, '}'), nil
}

func appendQuery(b []byte, q *QueryDTO) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, q.ID, 10)
	b = append(b, `,"text":`...)
	b = appendString(b, q.Text)
	b = append(b, `,"user":`...)
	b = appendString(b, q.User)
	if q.Group != "" {
		b = append(b, `,"group":`...)
		b = appendString(b, q.Group)
	}
	b = append(b, `,"issuedAt":`...)
	b, err := appendTime(b, q.IssuedAt)
	if err != nil {
		return b, err
	}
	if len(q.Tables) > 0 {
		b = append(b, `,"tables":`...)
		b = appendStrings(b, q.Tables)
	}
	b = append(b, `,"resultRows":`...)
	b = strconv.AppendInt(b, int64(q.ResultRows), 10)
	b = append(b, `,"execMillis":`...)
	if b, err = appendFloat(b, q.ExecMillis); err != nil {
		return b, err
	}
	if q.SessionID != 0 {
		b = append(b, `,"sessionId":`...)
		b = strconv.AppendInt(b, q.SessionID, 10)
	}
	b = append(b, `,"valid":`...)
	b = strconv.AppendBool(b, q.Valid)
	if len(q.Annotations) > 0 {
		b = append(b, `,"annotations":`...)
		b = appendStrings(b, q.Annotations)
	}
	if q.Quality != 0 {
		b = append(b, `,"quality":`...)
		if b, err = appendFloat(b, q.Quality); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func appendSubmit(b []byte, r *SubmitResponse) ([]byte, error) {
	b = append(b, `{"queryId":`...)
	b = strconv.AppendInt(b, r.QueryID, 10)
	if len(r.Columns) > 0 {
		b = append(b, `,"columns":`...)
		b = appendStrings(b, r.Columns)
	}
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, row)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rowCount":`...)
	b = strconv.AppendInt(b, int64(r.RowCount), 10)
	b = append(b, `,"execMillis":`...)
	b, err := appendFloat(b, r.ExecMillis)
	if err != nil {
		return b, err
	}
	if r.ExecError != "" {
		b = append(b, `,"execError":`...)
		b = appendString(b, r.ExecError)
	}
	b = append(b, `,"suggestAnnotation":`...)
	b = strconv.AppendBool(b, r.SuggestAnnotation)
	return append(b, '}'), nil
}

func appendBatchItem(b []byte, it *BatchItemResult) ([]byte, error) {
	b = append(b, '{')
	if it.Result != nil {
		b = append(b, `"result":`...)
		var err error
		if b, err = appendSubmit(b, it.Result); err != nil {
			return b, err
		}
	}
	if e := it.Error; e != nil {
		if it.Result != nil {
			b = append(b, ',')
		}
		b = append(b, `"error":{"code":`...)
		b = appendString(b, string(e.Code))
		b = append(b, `,"message":`...)
		b = appendString(b, e.Message)
		if len(e.Details) > 0 {
			b = append(b, `,"details":`...)
			b = appendDetails(b, e.Details)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendDetails appends a string map with its keys sorted, as encoding/json
// writes every map.
func appendDetails(b []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendString(b, m[k])
	}
	return append(b, '}')
}

// appendStrings appends a JSON array of strings, or null for a nil slice.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends f in encoding/json's format: the shortest decimal that
// reads back as f, in exponent form below 1e-6 and from 1e21 on. NaN and the
// infinities have no JSON form and are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendTime appends t quoted in RFC 3339 with nanoseconds, refusing what
// time.Time.MarshalJSON refuses: a year that is not four digits and a zone
// offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return b, errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	}
	if n := len(b); b[n-1] != 'Z' {
		sign, hour := b[n-len("Z07:00")], 10*(b[n-len("07:00")]-'0')+(b[n-len("7:00")]-'0')
		if ('0' <= sign && sign <= '9') || hour >= 24 {
			return b, errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string holds unescaped: everything but the
// control characters, '"', '\\' and the HTML-sensitive '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return safe
}()

// appendString appends s quoted as encoding/json quotes it with HTML escaping
// on: short escapes for '"', '\\', \b, \f, \n, \r and \t, \u00XX for the
// other control characters and for '<', '>' and '&', \ufffd for each byte of
// invalid UTF-8, and \u2028 and \u2029 (line and paragraph separator).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// DecodeJSON decodes the body data into r as json.Unmarshal(data, r) does:
// it accepts the same inputs, and what it leaves in r is reflect.DeepEqual to
// what Unmarshal leaves. Strings in r share one copy of data, which stays
// alive while any of them does; data itself is not retained.
func (r *SearchResponse) DecodeJSON(data []byte) error {
	d := newDecoder(data)
	d.searchResponse(r)
	return d.end()
}

// DecodeJSON decodes the body data into r as json.Unmarshal(data, r) does;
// see SearchResponse.DecodeJSON.
func (r *SubmitResponse) DecodeJSON(data []byte) error {
	d := newDecoder(data)
	d.submit(r)
	return d.end()
}

// DecodeJSON decodes the body data into r as json.Unmarshal(data, r) does;
// see SearchResponse.DecodeJSON.
func (r *BatchSubmitResponse) DecodeJSON(data []byte) error {
	d := newDecoder(data)
	d.batch(r)
	return d.end()
}

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// arenaCells is the most strings one block of decoder.arena holds.
const arenaCells = 128

// decoder reads one JSON body. Its rules are encoding/json's: unknown keys
// are skipped but syntax-checked, a key matches its field exactly or else
// case-insensitively, a later duplicate key decodes into what an earlier one
// left, and null sets a slice, map or pointer to nil and leaves anything else
// as it was. The first error stops it.
type decoder struct {
	data  []byte // the body, read only during the call
	s     string // one copy of data: a string with no escapes is a substring of it
	i     int    // read offset
	depth int    // open arrays and objects
	err   error
	buf   []byte   // scratch for unescaping a string
	cells []string // scratch for a string array's elements
	arena []string // the block exact-length string slices are carved from
}

func newDecoder(data []byte) decoder {
	return decoder{data: data, s: string(data)}
}

// end checks that nothing but white space follows the value and returns the
// first error.
func (d *decoder) end() error {
	if d.err == nil {
		d.ws()
		if d.i < len(d.data) {
			d.fail("invalid character after top-level value")
		}
	}
	return d.err
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		if d.i >= len(d.data) {
			msg = "unexpected end of JSON input"
		}
		d.err = fmt.Errorf("json: %s at offset %d", msg, d.i)
	}
}

func (d *decoder) ws() {
	for d.i < len(d.data) {
		if c := d.data[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.i++
	}
}

// peek skips white space and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// null consumes a null if one is next. It also reports true once an error
// has stopped the decoder, so that callers return.
func (d *decoder) null() bool {
	if d.err != nil {
		return true
	}
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

func (d *decoder) literal(lit string) {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		d.fail("invalid literal")
		return
	}
	d.i += len(lit)
}

// open consumes the opening bracket c of an array or object and reports
// whether it holds anything; an empty one is consumed whole.
func (d *decoder) open(c, end byte, what string) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != c {
		d.fail("expected " + what)
		return false
	}
	d.i++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	if d.peek() == end {
		d.i++
		d.depth--
		return false
	}
	return true
}

// next consumes the comma before the next element and reports true, or the
// closing bracket end and reports false.
func (d *decoder) next(end byte) bool {
	if d.err != nil {
		return false
	}
	switch d.peek() {
	case ',':
		d.i++
		return true
	case end:
		d.i++
		d.depth--
		return false
	}
	d.fail("expected comma or closing bracket")
	return false
}

// object consumes the start of an object and returns its first key; ok is
// false for an empty object and on error.
func (d *decoder) object() (key string, ok bool) {
	if !d.open('{', '}', "object") {
		return "", false
	}
	return d.key()
}

// nextKey consumes the separator after a member's value and returns the next
// key; ok is false at the closing brace and on error.
func (d *decoder) nextKey() (key string, ok bool) {
	if !d.next('}') {
		return "", false
	}
	return d.key()
}

func (d *decoder) key() (string, bool) {
	if d.peek() != '"' {
		d.fail("expected object key")
		return "", false
	}
	k := d.str()
	if d.peek() != ':' {
		d.fail("expected colon after object key")
		return "", false
	}
	d.i++
	return k, d.err == nil
}

// field returns the index in names of the field key selects: an exact match,
// else the first name equal to key under Unicode case folding (encoding/json's
// rule); -1 for an unknown key.
func field(key string, names []string) int {
	for i, n := range names {
		if key == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(key, n) {
			return i
		}
	}
	return -1
}

// plain marks the bytes a string literal holds as they are: ASCII but for
// the control characters, '"' and '\\'.
var plain = func() (p [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		p[c] = c != '"' && c != '\\'
	}
	return p
}()

// str reads the string literal at d.i. One without escapes or invalid UTF-8
// is a substring of d.s; any other is unescaped into a new string.
func (d *decoder) str() string {
	start := d.i + 1
	for i := start; i < len(d.data); {
		for i < len(d.data) && plain[d.data[i]] {
			i++
		}
		if i == len(d.data) {
			break
		}
		switch c := d.data[i]; {
		case c == '"':
			d.i = i + 1
			return d.s[start:i]
		case c < utf8.RuneSelf:
			return d.unquote(start, i)
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(d.data)
	d.fail("")
	return ""
}

// unquote finishes a string literal that needs rewriting, from offset i on,
// as encoding/json unquotes: each byte of invalid UTF-8 and each unpaired
// surrogate escape becomes U+FFFD.
func (d *decoder) unquote(start, i int) string {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b }()
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.i = i + 1
			return string(b)
		case c < 0x20:
			d.i = i
			d.fail("invalid character in string literal")
			return ""
		case c == '\\':
			if i+1 >= len(d.data) {
				d.i = len(d.data)
				d.fail("")
				return ""
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i+2:])
				if r < 0 {
					d.i = i
					d.fail("invalid escape in string literal")
					return ""
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, escapedRune(d.data[i:])); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.i = i
				d.fail("invalid escape in string literal")
				return ""
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, "\uFFFD"...)
			} else {
				b = append(b, d.data[i:i+size]...)
			}
			i += size
		}
	}
	d.i = len(d.data)
	d.fail("")
	return ""
}

// escapedRune reads a \uXXXX escape at the start of b; -1 if there is none.
func escapedRune(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// hex4 reads four hex digits; -1 if b does not start with them.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipString checks the string literal at d.i and steps over it.
func (d *decoder) skipString() {
	for i := d.i + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.i = i + 1
			return
		case c < 0x20:
			d.i = i
			d.fail("invalid character in string literal")
			return
		case c == '\\':
			if i+1 < len(d.data) && strings.IndexByte(`"\/bfnrt`, d.data[i+1]) >= 0 {
				i += 2
				continue
			}
			if i+1 < len(d.data) && d.data[i+1] == 'u' && hex4(d.data[i+2:]) >= 0 {
				i += 6
				continue
			}
			d.i = i
			d.fail("invalid escape in string literal")
			return
		default:
			i++
		}
	}
	d.i = len(d.data)
	d.fail("")
}

// number reads the number literal at d.i, checked against JSON's grammar.
func (d *decoder) number() string {
	start, i := d.i, d.i
	digits := func() bool {
		n := i
		for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		d.i = i
		d.fail("invalid number literal")
		return ""
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			d.i = i
			d.fail("invalid number literal")
			return ""
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			d.fail("invalid number literal")
			return ""
		}
	}
	d.i = i
	return d.s[start:i]
}

// skip checks the value at d.i, of any kind, and steps over it.
func (d *decoder) skip() {
	if d.err != nil {
		return
	}
	switch c := d.peek(); {
	case c == '"':
		d.skipString()
	case c == '{':
		for _, ok := d.object(); ok; _, ok = d.nextKey() {
			d.skip()
		}
	case c == '[':
		for more := d.open('[', ']', "array"); more; more = d.next(']') {
			d.skip()
		}
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("invalid character looking for beginning of value")
	}
}

// ---------------------------------------------------------------------------
// Typed values
// ---------------------------------------------------------------------------

func (d *decoder) string(p *string) {
	if d.null() {
		return
	}
	if d.peek() != '"' {
		d.fail("expected string")
		return
	}
	*p = d.str()
}

// numberLiteral reads a number where one must be; "" on error.
func (d *decoder) numberLiteral() string {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		d.fail("expected number")
		return ""
	}
	return d.number()
}

func (d *decoder) int64(p *int64) {
	if d.null() {
		return
	}
	if lit := d.numberLiteral(); d.err == nil {
		n, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			d.fail("number " + lit + " is not a 64-bit integer")
			return
		}
		*p = n
	}
}

func (d *decoder) int(p *int) {
	if d.null() {
		return
	}
	if lit := d.numberLiteral(); d.err == nil {
		n, err := strconv.ParseInt(lit, 10, strconv.IntSize)
		if err != nil {
			d.fail("number " + lit + " is not an int")
			return
		}
		*p = int(n)
	}
}

func (d *decoder) float(p *float64) {
	if d.null() {
		return
	}
	if lit := d.numberLiteral(); d.err == nil {
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			d.fail("number " + lit + " is not a float64")
			return
		}
		*p = f
	}
}

func (d *decoder) bool(p *bool) {
	if d.null() {
		return
	}
	switch d.peek() {
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	default:
		d.fail("expected true or false")
	}
}

// time hands the raw string literal to time.Time.UnmarshalJSON, as
// encoding/json does: escapes are not undone first.
func (d *decoder) time(p *time.Time) {
	if d.null() {
		return
	}
	if d.peek() != '"' {
		d.fail("expected a time string")
		return
	}
	start := d.i
	if d.skipString(); d.err == nil {
		if err := p.UnmarshalJSON(d.data[start:d.i]); err != nil {
			d.err = err
		}
	}
}

// list decodes an array into *p element by element as encoding/json does: an
// element the slice already has (a duplicate key's) is decoded into, the
// slice is cut to the array's length, and [] gives an empty, non-nil slice.
func list[T any](d *decoder, p *[]T, elem func(*decoder, *T)) {
	if d.null() {
		*p = nil
		return
	}
	s, n := *p, 0
	for more := d.open('[', ']', "array"); more; more = d.next(']') {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		elem(d, &s[n])
		n++
	}
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
}

// strings decodes a string array. Into a nil slice — every real body — the
// elements are gathered in d.cells and copied into an exact-length slice
// carved from d.arena, so a page's many short lists share a few allocations.
func (d *decoder) strings(p *[]string) {
	if *p != nil {
		list(d, p, (*decoder).string)
		return
	}
	if d.null() {
		return
	}
	cells := d.cells[:0]
	for more := d.open('[', ']', "array"); more; more = d.next(']') {
		var s string
		d.string(&s)
		cells = append(cells, s)
	}
	d.cells = cells
	if d.err != nil {
		return
	}
	n := len(cells)
	if n == 0 {
		*p = []string{}
		return
	}
	if cap(d.arena)-len(d.arena) < n {
		// Room for this list and as many more strings as the rest of the
		// body can hold (each takes at least three bytes: "",), so a small
		// body does not pay for a whole block.
		d.arena = make([]string, 0, n+min(arenaCells, (len(d.data)-d.i)/3))
	}
	at := len(d.arena)
	d.arena = append(d.arena, cells...)
	*p = d.arena[at : at+n : at+n]
}

// pointer decodes into *p, allocating it first as encoding/json does; null
// sets it to nil.
func pointer[T any](d *decoder, p **T, decode func(*decoder, *T)) {
	if d.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(d, *p)
}

var searchFields = []string{"matches", "nextCursor"}

func (d *decoder) searchResponse(r *SearchResponse) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, searchFields) {
		case 0:
			list(d, &r.Matches, (*decoder).match)
		case 1:
			d.string(&r.NextCursor)
		default:
			d.skip()
		}
	}
}

var matchFields = []string{"query", "score", "why"}

func (d *decoder) match(m *MatchDTO) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, matchFields) {
		case 0:
			d.query(&m.Query)
		case 1:
			d.float(&m.Score)
		case 2:
			d.string(&m.Why)
		default:
			d.skip()
		}
	}
}

var queryFields = []string{"id", "text", "user", "group", "issuedAt", "tables",
	"resultRows", "execMillis", "sessionId", "valid", "annotations", "quality"}

func (d *decoder) query(q *QueryDTO) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, queryFields) {
		case 0:
			d.int64(&q.ID)
		case 1:
			d.string(&q.Text)
		case 2:
			d.string(&q.User)
		case 3:
			d.string(&q.Group)
		case 4:
			d.time(&q.IssuedAt)
		case 5:
			d.strings(&q.Tables)
		case 6:
			d.int(&q.ResultRows)
		case 7:
			d.float(&q.ExecMillis)
		case 8:
			d.int64(&q.SessionID)
		case 9:
			d.bool(&q.Valid)
		case 10:
			d.strings(&q.Annotations)
		case 11:
			d.float(&q.Quality)
		default:
			d.skip()
		}
	}
}

var submitFields = []string{"queryId", "columns", "rows", "rowCount",
	"execMillis", "execError", "suggestAnnotation"}

func (d *decoder) submit(r *SubmitResponse) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, submitFields) {
		case 0:
			d.int64(&r.QueryID)
		case 1:
			d.strings(&r.Columns)
		case 2:
			list(d, &r.Rows, (*decoder).strings)
		case 3:
			d.int(&r.RowCount)
		case 4:
			d.float(&r.ExecMillis)
		case 5:
			d.string(&r.ExecError)
		case 6:
			d.bool(&r.SuggestAnnotation)
		default:
			d.skip()
		}
	}
}

var batchFields = []string{"results"}

func (d *decoder) batch(r *BatchSubmitResponse) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, batchFields) {
		case 0:
			list(d, &r.Results, (*decoder).batchItem)
		default:
			d.skip()
		}
	}
}

var batchItemFields = []string{"result", "error"}

func (d *decoder) batchItem(it *BatchItemResult) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, batchItemFields) {
		case 0:
			pointer(d, &it.Result, (*decoder).submit)
		case 1:
			pointer(d, &it.Error, (*decoder).apiError)
		default:
			d.skip()
		}
	}
}

var apiErrorFields = []string{"code", "message", "details"}

func (d *decoder) apiError(e *APIError) {
	if d.null() {
		return
	}
	for key, ok := d.object(); ok; key, ok = d.nextKey() {
		switch field(key, apiErrorFields) {
		case 0:
			d.string((*string)(&e.Code))
		case 1:
			d.string(&e.Message)
		case 2:
			d.details(&e.Details)
		default:
			d.skip()
		}
	}
}

// details decodes a string map: {} gives an empty map, and a null member
// value is stored as "".
func (d *decoder) details(p *map[string]string) {
	if d.null() {
		*p = nil
		return
	}
	key, ok := d.object()
	if d.err != nil {
		return
	}
	if *p == nil {
		*p = map[string]string{}
	}
	for ; ok; key, ok = d.nextKey() {
		var v string
		d.string(&v)
		(*p)[key] = v
	}
}
