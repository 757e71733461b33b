package serve

import (
	"reflect"
	"testing"

	"hpmvm/internal/api"
)

// FuzzResolve feeds arbitrary bytes through the request trust boundary
// (Resolver.request: memo → decode → resolve): it never panics, every
// rejection carries one of the two stable codes a malformed request
// can earn and leaves nothing in the memo, and every accepted request
// resolves to valid options and to the same content addresses each
// time, memoized or fresh — the property the result cache, the
// snapshot cache and the coordinator's sticky routing all rest on.
// Runs over its seeds as a plain test; `make fuzz-smoke` explores
// further.
func FuzzResolve(f *testing.F) {
	for _, body := range byteIdenticalBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"workload":"serve_tiny"}{"workload":"serve_slow"}`))
	f.Add([]byte(`{"workload":"serve_tiny","heap_factor":-1}`))

	r := newResolver()
	f.Fuzz(func(t *testing.T, body []byte) {
		decoded := 0
		res, err := r.request(body, func() { decoded++ })
		if err != nil {
			switch code := toAPIError(err).Code; code {
			case api.CodeBadRequest, api.CodeUnknownWorkload:
			default:
				t.Fatalf("rejection of %q carries code %q: %v", body, code, err)
			}
			if _, ok := r.recall(body); ok {
				t.Fatalf("rejected %q was memoized", body)
			}
			return
		}
		if decoded != 1 {
			t.Fatalf("accepted %q ticked decoded %d times, want 1", body, decoded)
		}
		if err := res.opts.Validate(); err != nil {
			t.Fatalf("accepted %q resolves to invalid options: %v", body, err)
		}
		req, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("accepted %q does not decode: %v", body, err)
		}
		fresh, err := r.resolve(req)
		if err != nil || !sameResolution(fresh, res) {
			t.Fatalf("fresh resolve of %q: keys (%s, %s) then (%s, %s), err %v",
				body, res.key, res.snapKey, fresh.key, fresh.snapKey, err)
		}
		again, err := r.request(body, func() { decoded++ })
		if err != nil || decoded != 2 || !sameResolution(again, res) {
			t.Fatalf("second request of %q: keys (%s, %s) then (%s, %s), err %v",
				body, res.key, res.snapKey, again.key, again.snapKey, err)
		}
	})
}

// sameResolution reports whether a and b resolve the same run: the
// workload, the canonical options, the warm-start prefix and both
// content addresses.
func sameResolution(a, b resolved) bool {
	return a.meta.name == b.meta.name && a.key == b.key && a.snapKey == b.snapKey &&
		a.warmCycles == b.warmCycles && a.opts.CanonicalString() == b.opts.CanonicalString() &&
		reflect.DeepEqual(a.cfg, b.cfg)
}
