package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"podium/internal/groups"
	"podium/internal/server"
	"podium/internal/synth"
)

var (
	legOnce sync.Once
	legBody []byte
)

// scaleLegBody is a shard leg's body at benchmark scale: harmonic/8 with
// top_k 1 on the 100K-user ScaleLike index (9,495 groups, about 1.1 MB).
func scaleLegBody(b *testing.B) []byte {
	legOnce.Do(func() {
		s := server.New("bench", synth.Generate(synth.ScaleLike(100000)).Repo, groups.Config{K: 3}, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(`{"budget":8,"rule":"harmonic","top_k":1}`)))
		if rec.Code == http.StatusOK {
			legBody = rec.Body.Bytes()
		}
	})
	if legBody == nil {
		b.Fatal("no leg body")
	}
	return legBody
}

var sinkSelection Selection

// BenchmarkDecodeSelection compares the direct select-body decoder with
// json.Unmarshal on one shard leg's body.
func BenchmarkDecodeSelection(b *testing.B) {
	body := scaleLegBody(b)
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeSelection(body, &sinkSelection); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s Selection
			if err := json.Unmarshal(body, &s); err != nil {
				b.Fatal(err)
			}
			sinkSelection = s
		}
	})
}
