package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/probe"
)

var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

// fuzzServer builds one shared server whose handler the fuzzer drives
// directly (no network); its drain workers run for the process lifetime.
// The snapshot carries forecast models so /v1/forecast fuzzing reaches the
// real lookup paths instead of the 503 guard.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	fuzzSrvOnce.Do(func() {
		snap := forecastSnapshot(f)
		var err error
		fuzzSrv, err = New(snap, nil, Config{QueueDepth: 1024})
		if err != nil {
			f.Fatal(err)
		}
	})
	return fuzzSrv
}

// FuzzIngestBody feeds arbitrary bytes to POST /v1/ingest alongside the
// probe package's own reader fuzz: the handler must always answer one of
// the documented statuses and never panic, hang, or poison the aggregate
// with partial batches.
func FuzzIngestBody(f *testing.F) {
	s := fuzzServer(f)

	var buf bytes.Buffer
	w := probe.NewWriter(&buf)
	_ = w.Write(probe.Record{Hour: 1, AntennaID: 2, Protocol: probe.TCP, ServerPort: 443, ServerName: "netflix.example", DownBytes: 10, UpBytes: 1})
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte{0x49, 0x43, 0x4e, 0x50, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(append([]byte{}, valid...), valid[6:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(data))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("ingest answered %d for %d fuzz bytes", rr.Code, len(data))
		}
	})
}

// FuzzClassifyBody feeds arbitrary JSON to POST /v1/classify; malformed
// bodies and wrong-shape vectors must come back 4xx, never crash the
// model.
func FuzzClassifyBody(f *testing.F) {
	s := fuzzServer(f)
	f.Add([]byte(`{"antennas":[{"id":1,"traffic":[1,2,3]}]}`))
	f.Add([]byte(`{"antennas":[{"id":1,"revision":9,"traffic":[1e308,-1,0]}]}`))
	f.Add([]byte(`{"antennas":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"antennas":[{"traffic":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(data))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code >= 500 && rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("classify answered %d for %q", rr.Code, data)
		}
	})
}

// FuzzForecastBody feeds arbitrary JSON to POST /v1/forecast; malformed
// bodies, double selectors, and out-of-range horizons must come back 4xx,
// never crash the model set or poison the LRU.
func FuzzForecastBody(f *testing.F) {
	s := fuzzServer(f)
	f.Add([]byte(`{"cluster":0}`))
	f.Add([]byte(`{"cluster":1,"horizon":168}`))
	f.Add([]byte(`{"antenna":3,"horizon":1}`))
	f.Add([]byte(`{"antenna":-1}`))
	f.Add([]byte(`{"cluster":0,"antenna":3}`))
	f.Add([]byte(`{"cluster":2147483647,"horizon":-5}`))
	f.Add([]byte(`{"horizon":1e9}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(data))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code >= 500 && rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("forecast answered %d for %q", rr.Code, data)
		}
	})
}

// FuzzClassifyDecode is the scanner's differential check: whenever the
// single-pass classify scanner accepts a body, encoding/json must accept
// it too, decode deep-equal values, and produce bit-identical traffic.
func FuzzClassifyDecode(f *testing.F) {
	for _, num := range []string{
		"-0", "0", "5e-324", "1.7976931348623157e308", "1e400", "-1e400",
		"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
		"1e22", "1e23", "1e-22", "1e-23", "12345678901234567890", "0.12345678901234567890",
		"00", "01.5", "0.5", "2.5E+3", "7e-1", "1e", "-", ".5", "1.",
	} {
		f.Add([]byte(`{"antennas":[{"id":7,"revision":3,"traffic":[` + num + `,1]}]}`))
	}
	f.Add([]byte(`{"antennas":[{"ID":1,"traffic":[1,2,3]}]}`))
	f.Add([]byte(`{"antennas":[{"id":1,"Traffic":[1]}]}`))
	f.Add([]byte(`{"antennas":[{"id":1,"unknown":true,"traffic":[1]}]}`))
	f.Add([]byte(`{"antennas":[{"id":1,"id":2,"traffic":[1]}]}`))
	f.Add([]byte(`{"antennas":[{"traffic":[1],"traffic":[2,3]}]}`))
	f.Add([]byte(`{"antennas":[{"id":1,"traffic":[1,2]}]}`))
	f.Add([]byte(`{"antennas":[{"id":4294967296,"revision":18446744073709551616}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"antennas":null}`))
	f.Add([]byte(`{"antennas":[null,{"traffic":null}]}`))
	f.Add([]byte(`{"antennas":[]}`))
	f.Add([]byte(`{"antennas":[]}` + " \n"))
	f.Add([]byte(`{"antennas":[]}x`))
	f.Add([]byte(`{"antennas":[{"id":1,"traffic":[1,2]}]}{"antennas":[]}`))
	f.Add([]byte(" {\t\"antennas\" : [ {\r\n\"id\" : 2 , \"traffic\" : [ 1 , 2 ] } ] } "))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := scanClassify(data)
		if ok {
			scanMatchesJSON(t, data, got)
		}
	})
}
