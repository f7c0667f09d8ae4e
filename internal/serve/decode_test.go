package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
)

var (
	bulkBodyOnce sync.Once
	bulkBody     []byte
	bulkBodyErr  error
)

// bulkClassifyBody marshals a full-scale bulk classify request: 4096 real
// outdoor traffic rows of a scale-1.0 synthetic dataset, every other
// antenna carrying a revision.
func bulkClassifyBody(tb testing.TB) []byte {
	tb.Helper()
	bulkBodyOnce.Do(func() {
		ds := synth.Generate(synth.Config{Seed: 1, Scale: 1, OutdoorCount: 4096})
		req := ClassifyRequest{Antennas: make([]AntennaVector, ds.OutdoorTraffic.Rows())}
		for i := range req.Antennas {
			req.Antennas[i] = AntennaVector{ID: uint32(i), Revision: uint64(i % 2 * (i + 1)), Traffic: ds.OutdoorTraffic.Row(i)}
		}
		bulkBody, bulkBodyErr = json.Marshal(req)
	})
	if bulkBodyErr != nil {
		tb.Fatal(bulkBodyErr)
	}
	return bulkBody
}

// scanMatchesJSON fails t unless encoding/json accepts body too, with
// deep-equal values and bit-identical traffic.
func scanMatchesJSON(t *testing.T, body []byte, got ClassifyRequest) {
	t.Helper()
	var want ClassifyRequest
	if err := decodeJSON(body, &want); err != nil {
		t.Fatalf("scanner accepted a body encoding/json rejects (%v): %q", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner decoded %+v, encoding/json %+v, for %q", got, want, body)
	}
	for i := range got.Antennas {
		for j, f := range got.Antennas[i].Traffic {
			if math.Float64bits(f) != math.Float64bits(want.Antennas[i].Traffic[j]) {
				t.Fatalf("antenna %d value %d: scanner %x, encoding/json %x, for %q",
					i, j, math.Float64bits(f), math.Float64bits(want.Antennas[i].Traffic[j]), body)
			}
		}
	}
}

// TestScanClassifyTakesMarshalledBulkRequest keeps the fast path honest:
// the body every real client sends must be taken by the scanner, not the
// fallback, and decode bit-identically to encoding/json.
func TestScanClassifyTakesMarshalledBulkRequest(t *testing.T) {
	body := bulkClassifyBody(t)
	got, ok := scanClassify(body)
	if !ok {
		t.Fatal("scanner declined json.Marshal(ClassifyRequest) output")
	}
	if len(got.Antennas) != 4096 {
		t.Fatalf("scanned %d antennas, want 4096", len(got.Antennas))
	}
	scanMatchesJSON(t, body, got)
}

// TestScanClassifyShapes pins which inputs the scanner takes and which it
// leaves to encoding/json; either way decodeClassify answers as
// encoding/json does.
func TestScanClassifyShapes(t *testing.T) {
	cases := []struct {
		body string
		scan bool
	}{
		{`{"antennas":[{"id":1,"revision":2,"traffic":[1,2.5,-0,3e2]}]}`, true},
		{" {\n\t\"antennas\" : [ { \"traffic\" : [ ] , \"id\" : 0 } ] }\r\n", true},
		{`{"antennas":[]}`, true},
		{`{"antennas":[{}]}`, true},
		{`{}`, true},
		{`{"antennas":[{"id":4294967295,"revision":9999999999999999999}]}`, true},
		{`{"antennas":[{"traffic":[5e-324,1.7976931348623157e308,9007199254740993,0.1e-22]}]}`, true},
		{`{"antennas":[{"traffic":[12345678901234567890123,1e23,00]}]}`, false},
		{`null`, false},
		{`{"antennas":null}`, false},
		{`{"antennas":[null]}`, false},
		{`{"antennas":[{"traffic":null}]}`, false},
		{`{"antennas":[{"ID":1}]}`, false},
		{`{"antennas":[{"id":1,"id":2}]}`, false},
		{`{"antennas":[{"name":"x"}]}`, false},
		{`{"antennas":[]} trailing`, false},
		{`{"antennas":[],"antennas":[]}`, false},
		{`{"antennas":[{"id":1.0}]}`, false},
		{`{"antennas":[{"id":1e0}]}`, false},
		{`{"antennas":[{"id":-0}]}`, false},
		{`{"antennas":[{"id":4294967296}]}`, false},
		{`{"antennas":[{"revision":18446744073709551615}]}`, false},
		{`{"antennas":[{"traffic":[1e400]}]}`, false},
		{`{"antennas":[{"traffic":[1,]}]}`, false},
		{`{"antennas":[{"traffic":[.5]}]}`, false},
		{`{"antennas":[{"traffic":[1.]}]}`, false},
		{`{"antennas":[{"traffic":[1e]}]}`, false},
		{`{"antennas":[{"traffic":[+1]}]}`, false},
		{`{"antennas":[{"traffic":[1]}`, false},
	}
	for _, c := range cases {
		got, ok := scanClassify([]byte(c.body))
		if ok != c.scan {
			t.Errorf("scanClassify(%q) ok = %v, want %v", c.body, ok, c.scan)
			continue
		}
		if ok {
			scanMatchesJSON(t, []byte(c.body), got)
		}
		var want ClassifyRequest
		wantErr := decodeJSON([]byte(c.body), &want)
		got, err := decodeClassify([]byte(c.body))
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("decodeClassify(%q) = %+v, %v; encoding/json %+v, %v", c.body, got, err, want, wantErr)
		}
	}
}

// TestScanClassifyFloatsBitExact runs the scanner's float conversion over
// literals on both sides of its exact-path limits and compares the bits
// with strconv's.
func TestScanClassifyFloatsBitExact(t *testing.T) {
	lits := []string{
		"0", "-0", "0.0", "-0.000", "1", "-1", "0.1", "0.3", "2.5e-3", "123456.789",
		"9007199254740991", "9007199254740992", "9007199254740993", "4503599627370497.5",
		"1e22", "1e23", "1e-22", "1e-23", "8.98846567431158e307", "4.9e-324", "2.2250738585072014e-308",
		"1234567890123456789", "12345678901234567890", "0.0000000000000000000000000001",
		"3.4028234663852886e38", "1E5", "1e+5", "7.000000000000000000001",
	}
	var b strings.Builder
	b.WriteString(`{"antennas":[{"traffic":[`)
	b.WriteString(strings.Join(lits, ","))
	b.WriteString(`]}]}`)
	got, ok := scanClassify([]byte(b.String()))
	if !ok {
		t.Fatalf("scanner declined %s", b.String())
	}
	scanMatchesJSON(t, []byte(b.String()), got)
}

func TestReadBodySizing(t *testing.T) {
	const limit = 16
	read := func(body string, contentLength int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		r.ContentLength = contentLength
		return ReadBody(httptest.NewRecorder(), r, limit)
	}
	got, err := read("hello", 5)
	if err != nil || string(got) != "hello" || cap(got) != 5 {
		t.Fatalf("declared length: %q cap %d, %v; want exactly sized %q", got, cap(got), err, "hello")
	}
	if got, err := read("", 0); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty body: %v, %v; want a non-nil empty slice", got, err)
	}
	if got, err := read("hello", -1); err != nil || string(got) != "hello" {
		t.Fatalf("unknown length: %q, %v", got, err)
	}
	if got, err := read("hello world", 5); err == nil {
		t.Fatalf("body past its declared length: %q, want an error", got)
	}
	if _, err := read("hi", 5); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
	var tooLarge *http.MaxBytesError
	for _, cl := range []int64{limit + 1, -1} {
		if _, err := read(strings.Repeat("x", limit+1), cl); !errors.As(err, &tooLarge) {
			t.Fatalf("over-limit body (Content-Length %d): %v, want *http.MaxBytesError", cl, err)
		}
	}
	if got, err := read(strings.Repeat("x", limit), limit); err != nil || len(got) != limit {
		t.Fatalf("body at the limit: %d bytes, %v", len(got), err)
	}
}

// TestOverLimitBodiesAnswer413 posts a body past MaxBodyBytes to every
// JSON endpoint: each must refuse it as too large, not as malformed.
func TestOverLimitBodiesAnswer413(t *testing.T) {
	s := startServer(t, forecastSnapshot(t), Config{MaxBodyBytes: 64})
	body := `{"antennas":[{"id":1,"traffic":[` + strings.Repeat("1,", 64) + `1]}]}`
	for _, path := range []string{"/v1/classify", "/v1/forecast", "/v1/plan"} {
		resp, err := http.Post(baseURL(s)+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s over-limit body: status %d (%s), want 413", path, resp.StatusCode, out)
		}
	}
}

// BenchmarkClassifyDecode decodes the full-scale bulk body with the
// scanner and with encoding/json; compare MB/s and allocs/op.
func BenchmarkClassifyDecode(b *testing.B) {
	body := bulkClassifyBody(b)
	decoders := []struct {
		name   string
		decode func() error
	}{
		{"scan", func() error {
			if _, ok := scanClassify(body); !ok {
				return errors.New("scanner declined the bulk body")
			}
			return nil
		}},
		{"encoding_json", func() error {
			var req ClassifyRequest
			return decodeJSON(body, &req)
		}},
	}
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
