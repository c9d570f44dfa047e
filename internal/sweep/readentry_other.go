//go:build !linux

package sweep

import (
	"io"
	"os"
)

// readEntry reads the file at path into buf with one Read and returns the
// number of bytes read; see the Linux version for the contract. This one
// goes through os.File, which allocates the file and its name.
func readEntry(path, buf []byte) (int, error) {
	f, err := os.Open(string(path))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.Read(buf)
	if err == io.EOF {
		err = nil
	}
	return n, err
}
