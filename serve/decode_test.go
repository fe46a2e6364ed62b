package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// appendPointsBody builds {"model":…,"points":…} as the benchmark does,
// every value printed by strconv.AppendFloat(…, 'g', -1, 64).
func appendPointsBody(buf []byte, model string, pts [][]float64) []byte {
	buf = append(buf, `{"model":"`...)
	buf = append(buf, model...)
	buf = append(buf, `","points":[`...)
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloats(buf, p)
	}
	return append(buf, "]}"...)
}

func appendFloats(buf []byte, v []float64) []byte {
	buf = append(buf, '[')
	for j, f := range v {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
	}
	return append(buf, ']')
}

// renders returns n points of dimension dim in [0, 1], at full precision
// like the benchmark's noisy COIL renders.
func renders(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// benchBodies returns request bodies shaped as the benchmark sends them,
// each with a zero value of its destination type.
func benchBodies(t testing.TB) []decodeCase {
	rng := rand.New(rand.NewSource(5))
	ingest := appendPointsBody(nil, "ingest", renders(rng, 8, 2))
	ingest = append(appendFloats(append(ingest[:len(ingest)-1], `,"y":`...), renders(rng, 1, 8)[0]), '}')
	x := renders(rng, 30, 4)
	labeled := []int{0, 3, 7, 11}
	y := renders(rng, 1, len(labeled))[0]
	coil, err := json.Marshal(struct {
		X         [][]float64 `json:"x"`
		Y         []float64   `json:"y"`
		Labeled   []int       `json:"labeled"`
		Bandwidth float64     `json:"bandwidth"`
		AnchorSet string      `json:"anchor_set"`
	}{x, y, labeled, 0.7, "all"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := json.Marshal(struct {
		X         [][]float64 `json:"x"`
		Y         []float64   `json:"y"`
		Labeled   []int       `json:"labeled"`
		Kernel    string      `json:"kernel"`
		Bandwidth float64     `json:"bandwidth"`
		Stream    bool        `json:"stream"`
	}{x, y, labeled, "epanechnikov", 0.16, true})
	if err != nil {
		t.Fatal(err)
	}
	return []decodeCase{
		{"predict-1", appendPointsBody(nil, "m1", renders(rng, 1, 256)), new(predictRequest), true},
		{"predict-8", appendPointsBody(nil, "m4", renders(rng, 8, 256)), new(predictRequest), true},
		{"ingest", ingest, new(ingestRequest), true},
		{"fit-anchor-all", coil, new(fitRequest), true},
		{"fit-stream", stream, new(fitRequest), true},
	}
}

// decodeCase is one body and the path it must take into a value of v's
// type.
type decodeCase struct {
	name      string
	body      []byte
	v         canonicalBody
	canonical bool
}

// edgeBodies are bodies at the edge of the canonical form, each with the
// path it must take.
var edgeBodies = []decodeCase{
	{"mixed-case-keys", []byte(`{"Model":"m1","POINTS":[[0.5,1]]}`), new(predictRequest), false},
	{"duplicate-key", []byte(`{"model":"a","points":[[1]],"model":"b"}`), new(predictRequest), false},
	{"null", []byte(`null`), new(predictRequest), false},
	{"null-field", []byte(`{"model":"m1","points":null}`), new(predictRequest), false},
	{"escaped-string", []byte(`{"model":"m\u0031","points":[[1]]}`), new(predictRequest), false},
	{"out-of-range", []byte(`{"model":"m1","points":[[1e400]]}`), new(predictRequest), false},
	{"negative-zero", []byte(`{"model":"m1","points":[[-0,-0.0e-0]]}`), new(predictRequest), true},
	{"leading-zero", []byte(`{"model":"m1","points":[[01]]}`), new(predictRequest), false},
	{"bare-point", []byte(`{"model":"m1","points":[[1.]]}`), new(predictRequest), false},
	{"bom", []byte("\xef\xbb\xbf{\"model\":\"m1\",\"points\":[[1]]}"), new(predictRequest), false},
	{"trailing-data", []byte(`{"model":"m1","points":[[1]]}{}`), new(predictRequest), false},
	{"unknown-field", []byte(`{"model":"m1","points":[[1]],"extra":1}`), new(predictRequest), false},
	{"empty", nil, new(predictRequest), false},
	{"whitespace", []byte(" {\n\t\"model\" : \"m1\" ,\r\"points\":[ [ 1 , 2 ] , [ ] ] } \n"), new(predictRequest), true},
	{"empty-arrays", []byte(`{"model":"","points":[],"y":[]}`), new(ingestRequest), true},
	{"fit-scalars", []byte(`{"lambda":-0,"knn":-0,"top_m":12,"stream":false,"labeled":[],"x":[[]]}`), new(fitRequest), true},
	{"fit-int-as-float", []byte(`{"knn":1e1}`), new(fitRequest), false},
}

// sameBits reports whether a and b hold the same value, comparing floats
// by bits, pointers by nil-ness and pointee, and slices by nil-ness too:
// an ingest with "y":[] is refused and one without y is not, and
// "labeled":[] is a different fit from an omitted labeled.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameBits(a.Elem(), b.Elem()))
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkDecode decodes body into got through the scanner path and into a
// fresh value of the same type through encoding/json, and fails unless
// both accept or both reject with the same error, and accepted values
// match bit for bit.
func checkDecode(t *testing.T, body []byte, got canonicalBody) {
	t.Helper()
	var d bodyDecoder
	d.body.Write(body)
	gerr := d.decode(got)
	want := zeroOf(got)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	werr := dec.Decode(want)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%T from %q: scanner path err %v, encoding/json err %v", got, body, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%T from %q: error %q, encoding/json %q", got, body, gerr, werr)
	case gerr == nil && !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()):
		t.Fatalf("%T from %q: decoded %+v, encoding/json %+v", got, body, got, want)
	}
}

// TestDecodeCanonical runs the scanner itself on the benchmark's bodies
// and on the edge cases: each benchmark-shaped body must take the
// canonical path (a silent fallback would pass every other test and lose
// the speed), each edge case the path its row names, and every decode
// must equal encoding/json's.
func TestDecodeCanonical(t *testing.T) {
	for _, tc := range append(benchBodies(t), edgeBodies...) {
		t.Run(tc.name, func(t *testing.T) {
			var d bodyDecoder
			d.body.Write(tc.body)
			v := zeroOf(tc.v)
			if got := d.canonical(v); got != tc.canonical {
				t.Fatalf("canonical = %v, want %v", got, tc.canonical)
			}
			for i, row := range pointsOf(v) {
				if tc.canonical && cap(row) != len(row) {
					t.Fatalf("row %d: cap %d > len %d", i, cap(row), len(row))
				}
			}
			checkDecode(t, tc.body, zeroOf(tc.v))
		})
	}
}

// zeroOf returns a new zero value of v's request type.
func zeroOf(v canonicalBody) canonicalBody {
	return reflect.New(reflect.TypeOf(v).Elem()).Interface().(canonicalBody)
}

// TestReqScratchDropsOutsizedBody checks that releasing the pooled predict
// scratch after an outsized body drops the grown decoder instead of
// pinning it in the pool, and keeps an ordinary one for reuse.
func TestReqScratchDropsOutsizedBody(t *testing.T) {
	for _, size := range []int{64 << 10, 2 << 20} {
		sc := new(reqScratch)
		sc.dec.body.Grow(size)
		sc.release()
		if kept := sc.dec.body.Cap() > 0; kept != (size <= 1<<20) {
			t.Fatalf("%d-byte body buffer kept = %v", size, kept)
		}
	}
}

// pointsOf returns a request's matrix field.
func pointsOf(v canonicalBody) [][]float64 {
	switch r := v.(type) {
	case *predictRequest:
		return r.Points
	case *ingestRequest:
		return r.Points
	case *fitRequest:
		return r.X
	}
	return nil
}

// FuzzDecodeBody is the differential contract of the decoder: on any bytes
// and for every request type, the scanner path accepts and rejects what
// encoding/json with unknown fields disallowed does, with the same error,
// and decodes the same bits.
func FuzzDecodeBody(f *testing.F) {
	for _, tc := range append(benchBodies(f), edgeBodies...) {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, new(predictRequest))
		checkDecode(t, body, new(ingestRequest))
		checkDecode(t, body, new(fitRequest))
	})
}
