package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/probe"
)

// ReadBody reads a request body whole, bounded by limit bytes. When the
// request declares its Content-Length the body lands in one buffer of
// exactly that size (io.ReadFull plus a one-byte EOF probe); a declared
// length over the limit is refused before anything is read, and a body
// that ends early or runs on is an error. Only a body of unknown length
// goes through io.ReadAll's growing buffer. Over-limit bodies fail with
// *http.MaxBytesError.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	n := r.ContentLength
	if n < 0 {
		return io.ReadAll(body)
	}
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(body, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the body ended before its declared length
		}
		return nil, err
	}
	var probe [1]byte
	switch _, err := io.ReadFull(body, probe[:]); {
	case errors.Is(err, io.EOF):
		return buf, nil
	case err != nil:
		return nil, err
	default:
		return nil, fmt.Errorf("body runs past its declared %d bytes", n)
	}
}

// BodyStatus is the status a failed body read answers: 413 when the body
// ran past its limit, 400 when it is broken.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeBodyError answers a failed body read: "body exceeds <limit>
// bytes" with 413, or what and the error with 400.
func writeBodyError(w http.ResponseWriter, err error, limit int64, what string) {
	if status := BodyStatus(err); status == http.StatusRequestEntityTooLarge {
		WriteError(w, status, "body exceeds %d bytes", limit)
	} else {
		WriteError(w, status, "%s: %v", what, err)
	}
}

// readBody is ReadBody with the server's limit, answering the client
// itself on failure: 413 past the limit, 400 for a broken body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeBodyError(w, err, s.cfg.MaxBodyBytes, "bad request body")
		return nil, false
	}
	return body, true
}

// ReadProbeBatch reads one probe-wire-format batch from a body of at most
// maxBytes bytes, answering the client itself when it returns false: 413
// for a body over maxBytes or a batch over maxRecords records, and 400
// for a malformed stream or an empty batch. malformed runs before a
// malformed stream is answered, so the caller can count it.
func ReadProbeBatch(w http.ResponseWriter, r *http.Request, maxBytes int64, maxRecords int, malformed func()) ([]probe.Record, bool) {
	reader := probe.NewReader(http.MaxBytesReader(w, r.Body, maxBytes))
	var batch []probe.Record
	for {
		rec, err := reader.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if BodyStatus(err) == http.StatusBadRequest {
				malformed()
			}
			writeBodyError(w, err, maxBytes, "malformed probe stream")
			return nil, false
		}
		batch = append(batch, rec)
		if len(batch) > maxRecords {
			WriteError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d records", maxRecords)
			return nil, false
		}
	}
	if len(batch) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch")
		return nil, false
	}
	return batch, true
}

// decodeJSON decodes the first JSON value of body into v, exactly as a
// json.Decoder over the request stream would.
func decodeJSON(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// decodeClassify decodes a /v1/classify body. The single-pass scanner
// handles the shape json.Marshal(ClassifyRequest) emits; anything it
// declines goes to encoding/json on the same bytes, so accepted inputs,
// decoded values and errors are those of encoding/json.
func decodeClassify(body []byte) (ClassifyRequest, error) {
	if req, ok := scanClassify(body); ok {
		return req, nil
	}
	var req ClassifyRequest
	err := decodeJSON(body, &req)
	return req, err
}

// scanClassify decodes body in one pass when it is an object whose only
// key is "antennas", holding an array of objects keyed by "id",
// "revision" and "traffic" (each at most once), with unescaped keys,
// plain JSON numbers and nothing but whitespace after the object. It
// reports false on anything else, and the caller falls back to
// encoding/json. Every traffic value lands in one slab and the rows are
// slices of it. n values need n-1 commas inside their arrays, and the
// antennas holding the arrays one comma apart, so the comma count plus
// one bounds the values; every value also takes at least two bytes, which
// keeps a body of bare commas from sizing a slab past 4x its length.
func scanClassify(body []byte) (ClassifyRequest, bool) {
	sc := classifyScanner{
		buf:  body,
		slab: make([]float64, 0, min(bytes.Count(body, []byte{','}), len(body)/2)+1),
	}
	return sc.request()
}

// classifyScanner is the cursor of one scanClassify pass.
type classifyScanner struct {
	buf  []byte
	pos  int
	slab []float64
}

func (sc *classifyScanner) request() (ClassifyRequest, bool) {
	var req ClassifyRequest
	if !sc.eat('{') {
		return req, false
	}
	if sc.eat('}') {
		return req, sc.atEnd()
	}
	key, ok := sc.key()
	if !ok || string(key) != "antennas" || !sc.eat('[') {
		return req, false
	}
	req.Antennas = []AntennaVector{}
	if !sc.eat(']') {
		for {
			a, ok := sc.antenna()
			if !ok {
				return req, false
			}
			req.Antennas = append(req.Antennas, a)
			if sc.eat(']') {
				break
			}
			if !sc.eat(',') {
				return req, false
			}
		}
	}
	return req, sc.eat('}') && sc.atEnd()
}

// antenna scans one antenna object.
func (sc *classifyScanner) antenna() (AntennaVector, bool) {
	var a AntennaVector
	if !sc.eat('{') {
		return a, false
	}
	if sc.eat('}') {
		return a, true
	}
	var seenID, seenRev, seenTraffic bool
	for {
		key, ok := sc.key()
		if !ok {
			return a, false
		}
		switch {
		case string(key) == "id" && !seenID:
			seenID = true
			v, ok := sc.unsigned(32)
			if !ok {
				return a, false
			}
			a.ID = uint32(v)
		case string(key) == "revision" && !seenRev:
			seenRev = true
			if a.Revision, ok = sc.unsigned(64); !ok {
				return a, false
			}
		case string(key) == "traffic" && !seenTraffic:
			seenTraffic = true
			if a.Traffic, ok = sc.floats(); !ok {
				return a, false
			}
		default:
			return a, false
		}
		if sc.eat('}') {
			return a, true
		}
		if !sc.eat(',') {
			return a, false
		}
	}
}

// floats scans a non-null array of numbers into the slab and returns its
// row, capped so appends to it cannot reach the next row.
func (sc *classifyScanner) floats() ([]float64, bool) {
	if !sc.eat('[') {
		return nil, false
	}
	start := len(sc.slab)
	if !sc.eat(']') {
		for {
			f, ok := sc.float()
			if !ok {
				return nil, false
			}
			sc.slab = append(sc.slab, f)
			if sc.eat(']') {
				break
			}
			if !sc.eat(',') {
				return nil, false
			}
		}
	}
	end := len(sc.slab)
	return sc.slab[start:end:end], true
}

// float10 holds the powers of ten a float64 represents exactly.
var float10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float scans one JSON number into the float64 strconv.ParseFloat would
// give. A mantissa of at most 19 significant digits below 2^53 is exact as
// a float64, and so is every power of ten up to 1e22, so one IEEE multiply
// or divide rounds the exact decimal value correctly: that is strconv's
// own exact fast path. Any other literal goes to strconv.ParseFloat, and a
// range error declines the body.
func (sc *classifyScanner) float() (float64, bool) {
	start := sc.skipSpace()
	mant, digits, exp, ok := sc.number()
	if !ok {
		return 0, false
	}
	if digits <= 19 && mant < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if sc.buf[start] == '-' {
			f = -f
		}
		if exp < 0 {
			return f / float10[-exp], true
		}
		return f * float10[exp], true
	}
	f, err := strconv.ParseFloat(string(sc.buf[start:sc.pos]), 64)
	return f, err == nil
}

// unsigned scans a JSON number that is a plain non-negative integer fitting in
// bits, the only form encoding/json stores into an unsigned field.
func (sc *classifyScanner) unsigned(bits int) (uint64, bool) {
	start := sc.skipSpace()
	if start < len(sc.buf) && sc.buf[start] == '-' {
		return 0, false
	}
	v, digits, exp, ok := sc.number()
	if !ok || exp != 0 || digits > 19 || sc.pos-start != max(digits, 1) || v > math.MaxUint64>>(64-bits) {
		return 0, false
	}
	return v, true
}

// number validates one JSON number at the cursor and moves past it. It
// returns the first 19 significant decimal digits as an integer, how many
// significant digits there were, and the decimal exponent that scales the
// integer back to the literal's value; the exponent is exact while
// digits <= 19, and the callers take no other case directly.
func (sc *classifyScanner) number() (mant uint64, digits, exp int, ok bool) {
	b, i := sc.buf, sc.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i >= len(b) || !isDigit(b[i]) {
		return 0, 0, 0, false
	}
	if b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		for ; i < len(b) && isDigit(b[i]); i++ {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			digits++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, 0, false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			switch {
			case mant == 0 && b[i] == '0':
				exp-- // a zero before the first significant digit
			case digits < 19:
				mant = mant*10 + uint64(b[i]-'0')
				exp--
				digits++
			default:
				digits++
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, 0, 0, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1<<20 { // far past float64's range; ParseFloat decides
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	sc.pos = i
	return mant, digits, exp, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// key scans an object key and its colon. Keys with escapes or control
// bytes are declined: encoding/json would unescape them first.
func (sc *classifyScanner) key() ([]byte, bool) {
	if !sc.eat('"') {
		return nil, false
	}
	start := sc.pos
	for ; sc.pos < len(sc.buf); sc.pos++ {
		switch c := sc.buf[sc.pos]; {
		case c == '"':
			key := sc.buf[start:sc.pos]
			sc.pos++
			return key, sc.eat(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// eat consumes optional whitespace and then c, reporting whether c was
// there.
func (sc *classifyScanner) eat(c byte) bool {
	sc.skipSpace()
	if sc.pos < len(sc.buf) && sc.buf[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// skipSpace moves past JSON whitespace and returns the new cursor.
func (sc *classifyScanner) skipSpace() int {
	for sc.pos < len(sc.buf) {
		switch sc.buf[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return sc.pos
		}
	}
	return sc.pos
}

// atEnd reports whether only whitespace remains.
func (sc *classifyScanner) atEnd() bool { return sc.skipSpace() == len(sc.buf) }
