package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hpmvm/internal/api"
)

// FuzzResolve feeds arbitrary bytes through the request trust boundary
// (decodeRequest → Resolver.resolve): it never panics, every rejection
// carries one of the three stable codes a malformed request can earn,
// and every accepted request resolves to valid options and to the same
// content addresses each time — the property the result cache, the
// snapshot cache and the coordinator's sticky routing all rest on.
// Runs over its seeds as a plain test; `make fuzz-smoke` explores
// further.
func FuzzResolve(f *testing.F) {
	for _, body := range byteIdenticalBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"workload":"serve_tiny"}{"workload":"serve_slow"}`))

	r := newResolver()
	f.Fuzz(func(t *testing.T, body []byte) {
		hr := httptest.NewRequest(http.MethodPost, api.PathRun, bytes.NewReader(body))
		req, err := decodeRequest(httptest.NewRecorder(), hr)
		var res resolved
		if err == nil {
			res, err = r.resolve(req)
		}
		if err != nil {
			switch code := toAPIError(err).Code; code {
			case api.CodeBadRequest, api.CodeUnknownWorkload, api.CodeMethodNotAllowed:
			default:
				t.Fatalf("rejection of %q carries code %q: %v", body, code, err)
			}
			return
		}
		if err := res.opts.Validate(); err != nil {
			t.Fatalf("accepted %q resolves to invalid options: %v", body, err)
		}
		again, err := r.resolve(req)
		if err != nil || again.key != res.key || again.snapKey != res.snapKey {
			t.Fatalf("second resolve of %q: keys (%s, %s) then (%s, %s), err %v",
				body, res.key, res.snapKey, again.key, again.snapKey, err)
		}
	})
}
