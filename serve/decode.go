package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strconv"
)

// bodyDecoder decodes request bodies with a byte scanner in front of
// encoding/json. The scanner accepts only the canonical form clients send:
// one object whose keys are the destination struct's exact JSON names, each
// at most once, then only whitespace; strings of printable ASCII without
// escapes; JSON-grammar numbers, converted by strconv as encoding/json
// converts them; true and false; arrays of numbers and arrays of those.
// Every other body is decoded from the same bytes into a zero value by
// encoding/json with unknown fields disallowed, so acceptance, rejection
// and error text stay encoding/json's. A matrix decodes into rows of one
// flat backing: a pooled decoder reuses it, a fresh one owns it alone.
type bodyDecoder struct {
	body bytes.Buffer
	b    []byte      // the body under scan
	i    int         // scan offset into b
	flat []float64   // backing of every matrix row
	rows [][]float64 // matrix row headers, windows of flat
}

// canonicalBody is a request body the scanner decodes: decodeField decodes
// the next value into the field named key, or reports it non-canonical.
type canonicalBody interface {
	decodeField(d *bodyDecoder, key []byte) bool
}

// decodeBody reads the size-capped body of r whole into d and decodes it
// into v, a zero request body. Reading whole rejects a body over the cap
// even when its first JSON value ends inside it. A failure wraps sentinel:
// ErrFitRequest for a fit body, ErrPoint for predict and ingest bodies.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, d *bodyDecoder, v canonicalBody, sentinel error) error {
	d.body.Reset()
	_, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = d.decode(v)
	}
	if err != nil {
		return fmt.Errorf("serve: bad request body: %v: %w", err, sentinel)
	}
	return nil
}

// decode decodes the body held in d into v, a zero request body: by the
// scanner when the body is canonical, else by encoding/json.
func (d *bodyDecoder) decode(v canonicalBody) error {
	if d.canonical(v) {
		return nil
	}
	reflect.ValueOf(v).Elem().SetZero()
	dec := json.NewDecoder(bytes.NewReader(d.body.Bytes()))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// canonical scans the body held in d into v and reports whether it was
// canonical. On false, v may hold part of the body.
func (d *bodyDecoder) canonical(v canonicalBody) bool {
	d.b, d.i = d.body.Bytes(), 0
	d.flat, d.rows = d.flat[:0], d.rows[:0]
	seen := make([][]byte, 0, 16) // keys decoded so far
	ok := d.list('{', '}', func() bool {
		key, ok := d.quoted()
		if !ok || slices.ContainsFunc(seen, func(k []byte) bool { return bytes.Equal(k, key) }) {
			return false
		}
		seen = append(seen, key)
		return d.eat(':') && v.decodeField(d, key)
	})
	d.ws()
	return ok && d.i == len(d.b)
}

// list scans a JSON object or array from open to end, calling elem at each
// comma-separated element.
func (d *bodyDecoder) list(open, end byte, elem func() bool) bool {
	if !d.eat(open) {
		return false
	}
	for n := 0; !d.eat(end); n++ {
		if (n > 0 && !d.eat(',')) || !elem() {
			return false
		}
	}
	return true
}

// ws skips JSON whitespace.
func (d *bodyDecoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\n' || d.b[d.i] == '\t' || d.b[d.i] == '\r') {
		d.i++
	}
}

// eat skips whitespace and consumes c if it is next.
func (d *bodyDecoder) eat(c byte) bool {
	d.ws()
	return d.next(c)
}

// next consumes c if it is the next byte.
func (d *bodyDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// quoted scans a string of printable ASCII without escapes and returns
// its contents.
func (d *bodyDecoder) quoted() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.b[d.i : d.i+n]
	d.i += n + 1
	return s, !bytes.ContainsFunc(s, func(r rune) bool { return r < ' ' || r > '~' || r == '\\' })
}

// number skips whitespace, scans a number in the JSON grammar and returns
// its text, or nil if none is next; strconv rejects the empty text.
func (d *bodyDecoder) number() []byte {
	d.ws()
	start := d.i
	d.next('-')
	if !d.next('0') && d.digits() == 0 {
		return nil
	}
	if d.next('.') && d.digits() == 0 {
		return nil
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			return nil
		}
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and returns its length.
func (d *bodyDecoder) digits() int {
	b, i := d.b, d.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	n := i - d.i
	d.i = i
	return n
}

func (d *bodyDecoder) text(dst *string) bool {
	s, ok := d.quoted()
	*dst = string(s)
	return ok
}

func (d *bodyDecoder) float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	*dst = f
	return err == nil
}

func (d *bodyDecoder) integer(dst *int) bool {
	// encoding/json parses at 64 bits, then rejects what overflows int.
	n, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *bodyDecoder) boolean(dst *bool) bool {
	d.ws()
	for _, lit := range []string{"false", "true"} {
		if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
			*dst, d.i = lit == "true", d.i+len(lit)
			return true
		}
	}
	return false
}

// array scans an array of numbers into a fresh slice, converting each with
// conv.
func array[T any](d *bodyDecoder, dst *[]T, conv func(*T) bool) bool {
	s := []T{} // encoding/json decodes [] to an empty, non-nil slice
	ok := d.list('[', ']', func() bool {
		s = append(s, *new(T))
		return conv(&s[len(s)-1])
	})
	*dst = s
	return ok
}

// matrix scans an array of number arrays into dst. Its rows are
// full-slice-expression windows of d.flat, so appending to one never
// overwrites the next.
func (d *bodyDecoder) matrix(dst *[][]float64) bool {
	r0, off := len(d.rows), len(d.flat)
	ok := d.list('[', ']', func() bool {
		start := len(d.flat)
		ok := d.list('[', ']', func() bool {
			d.flat = append(d.flat, 0)
			return d.float(&d.flat[len(d.flat)-1])
		})
		d.rows = append(d.rows, d.flat[start:len(d.flat):len(d.flat)])
		return ok
	})
	if !ok {
		return false
	}
	// Appends may have moved d.flat: re-cut the rows from its final backing.
	for i := r0; i < len(d.rows); i++ {
		n := len(d.rows[i])
		d.rows[i] = nonNil(d.flat[off : off+n : off+n])
		off += n
	}
	*dst = nonNil(d.rows[r0:len(d.rows):len(d.rows)])
	return true
}

// nonNil returns s, or an empty non-nil slice for nil: encoding/json
// decodes [] to a non-nil slice, and callers tell the two apart.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

func (r *predictRequest) decodeField(d *bodyDecoder, key []byte) bool {
	switch string(key) {
	case "model":
		return d.text(&r.Model)
	case "points":
		return d.matrix(&r.Points)
	}
	return false
}

func (r *ingestRequest) decodeField(d *bodyDecoder, key []byte) bool {
	switch string(key) {
	case "model":
		return d.text(&r.Model)
	case "points":
		return d.matrix(&r.Points)
	case "y":
		return array(d, &r.Y, d.float)
	}
	return false
}

func (r *fitRequest) decodeField(d *bodyDecoder, key []byte) bool {
	switch string(key) {
	case "x":
		return d.matrix(&r.X)
	case "y":
		return array(d, &r.Y, d.float)
	case "labeled":
		return array(d, &r.Labeled, d.integer)
	case "kernel":
		return d.text(&r.Kernel)
	case "bandwidth":
		return d.float(&r.Bandwidth)
	case "knn":
		return d.integer(&r.KNN)
	case "lambda":
		r.Lambda = new(float64)
		return d.float(r.Lambda)
	case "anchor_set":
		return d.text(&r.AnchorSet)
	case "top_m":
		return d.integer(&r.TopM)
	case "stream":
		return d.boolean(&r.Stream)
	}
	return false
}
