package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFigureGoldens guards every figure against silent output drift:
// each of the "all" sweep's tables and figures, plus the policy lab,
// reproduced on one shared Runner at 10k instructions, must match its
// committed golden byte-for-byte. The goldens are tcexp's stdout, which
// prints each figure with Println, so the comparison adds that trailing
// newline.
//
// If an intentional simulator change shifts these numbers, regenerate
// with:
//
//	for id in table1 fig3 fig4 fig5 fig6 fig7 fig8 table2 ablations policies; do
//		go run ./cmd/tcexp -exp $id -insts 10000 > internal/experiments/testdata/golden/$id.txt
//	done
func TestFigureGoldens(t *testing.T) {
	r := NewRunner(10_000)
	for _, id := range append(PaperIDs(), PoliciesID) {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Reproduce(id)
			if err != nil {
				t.Fatal(err)
			}
			if got += "\n"; got != string(want) {
				t.Errorf("%s drifted from its golden.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}
