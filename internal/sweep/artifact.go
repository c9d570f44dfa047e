// JSONL artifact support: `commuter sweep -out` mirrors every per-pair
// result to a file, one JSON object per line, so large sweeps leave a
// machine-readable record that downstream tooling can consume without
// rerunning anything.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ReadArtifact parses a JSONL stream of PairResults, one per line. Values
// are streamed through a json.Decoder, so a single huge line — a test-heavy
// pair's result can exceed 1 MiB — parses fine; the previous line-scanner
// implementation capped lines and failed such artifacts with an opaque
// "token too long". Blank lines are ignored (the decoder skips whitespace);
// a malformed value is an error carrying its entry number and byte offset.
func ReadArtifact(r io.Reader) ([]PairResult, error) {
	dec := json.NewDecoder(r)
	var out []PairResult
	for {
		var pr PairResult
		err := dec.Decode(&pr)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: artifact entry %d (near byte %d): %w",
				len(out)+1, dec.InputOffset(), err)
		}
		out = append(out, pr)
	}
}
