package lib

import "testing"

func TestFileBytes(t *testing.T) {
	if got := len(File{Size: 2}.Bytes()); got != 2 {
		t.Errorf("len = %d", got)
	}
	unused()
}
