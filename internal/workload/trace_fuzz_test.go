package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds ReadTrace arbitrary bytes. It must never panic,
// and any trace it accepts must survive WriteTrace and ReadTrace
// unchanged: the same requests back, and the same bytes on a second
// write. The seeds are what `tracegen -mode requests` emits (the
// mixed-corpus stream, with and without open-loop arrivals, decode
// capped), plus a checkpointed record, comments and malformed lines.
// Run it with
// go test ./internal/workload -run '^$' -fuzz FuzzReadTrace -fuzztime 10s
func FuzzReadTrace(f *testing.F) {
	for _, arrivals := range []string{"none", "poisson", "bursty"} {
		stream := NewStream(7, AllDatasets()...)
		if arrivals != "none" {
			proc, err := NewArrivals(arrivals, 8)
			if err != nil {
				f.Fatal(err)
			}
			stream.WithArrivals(proc)
		}
		reqs := stream.NextN(6)
		CapDecode(reqs, 8)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, reqs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"id":4,"dataset":"vicuna","prompt_tokens":35,"decode_tokens":9,"priority":1,"class":"batch","deadline":2.5,"arrival":0.25,` +
		`"checkpoint":{"prompt_consumed":35,"context":35,"kv_bytes":4096,"experts":[{"layer":0,"index":3}],"ttft":0.1,"ready_at":0.3}}` + "\n"))
	f.Add([]byte("# recorded trace\n\n" + `{"id":1,"decode_tokens":2}` + "\n"))
	f.Add([]byte(`{"id":0}` + "\n{not json}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, reqs); err != nil {
			t.Fatalf("WriteTrace rejected an accepted trace: %v", err)
		}
		again, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace rejected its own rewrite %q: %v", first.Bytes(), err)
		}
		if !reflect.DeepEqual(again, reqs) {
			t.Fatalf("round trip changed the requests:\n in: %+v\nout: %+v", reqs, again)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewrite not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
