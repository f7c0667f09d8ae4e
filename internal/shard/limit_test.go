package shard

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRouterAndReplicasShareBodyLimit pins one body limit across the
// sharded tier: the router hands its MaxBodyBytes to every replica, so an
// over-limit body is refused as too large both at the router and directly
// at a replica, while a body under the limit still proxies through.
func TestRouterAndReplicasShareBodyLimit(t *testing.T) {
	const limit = 256
	rt := startRouter(t, tinySnapshot(t), nil, Config{Shards: 1, Replicas: 2, MaxBodyBytes: limit})
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	small := `{"antennas":[{"id":1,"traffic":[100,5,5]}]}`
	if code, out := post(rt.URL()+"/v1/classify", small); code != http.StatusOK {
		t.Fatalf("under-limit classify through the router: %d (%s)", code, out)
	}
	big := `{"antennas":[{"id":1,"traffic":[100,5,5` + strings.Repeat(",1", limit) + `]}]}`
	for _, path := range []string{"/v1/classify", "/v1/forecast", "/v1/plan"} {
		if code, out := post(rt.URL()+path, big); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-limit %s through the router: %d (%s), want 413", path, code, out)
		}
		for i := 0; i < 2; i++ {
			url := "http://" + rt.Replica(i).Addr().String() + path
			if code, out := post(url, big); code != http.StatusRequestEntityTooLarge {
				t.Fatalf("over-limit %s at replica %d: %d (%s), want 413", path, i, code, out)
			}
		}
	}
}
