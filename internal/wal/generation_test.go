package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// named is subject i's name after round renames.
func named(i, round int) rdf.Triple {
	return rdf.T(rdf.IRI(fmt.Sprintf("http://example.org/site%d", i)), rdf.IRI("http://example.org/name"),
		rdf.NewString(fmt.Sprintf("site %d, name %d", i, round)))
}

// renamer drives a store through commits that leave its triple count alone:
// each batch renames two subjects, one generation for the pair.
type renamer struct {
	st     *store.Store
	rounds []int
	next   int
}

func seedRenamer(t *testing.T, st *store.Store, n int) *renamer {
	t.Helper()
	seed := make([]rdf.Triple, n)
	for i := range seed {
		seed[i] = named(i, 0)
	}
	st.AddAll(seed)
	return &renamer{st: st, rounds: make([]int, n)}
}

func (r *renamer) batches(t *testing.T, k int) {
	t.Helper()
	n := len(r.rounds)
	for ; k > 0; k-- {
		r.next++
		var ops []store.Op
		for _, i := range []int{r.next % n, (r.next + n/2) % n} {
			ops = append(ops, store.Op{Kind: store.OpReplace, MustExist: true,
				Triples: []rdf.Triple{named(i, r.rounds[i]), named(i, r.rounds[i]+1)}})
			r.rounds[i]++
		}
		gen := r.st.Generation()
		if _, err := r.st.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		if r.st.Generation() != gen+1 {
			t.Fatalf("a %d-op batch moved the generation %d -> %d", len(ops), gen, r.st.Generation())
		}
	}
}

// TestGenerationSurvivesRecovery: a recovered store reports the generation
// it had when it stopped, with the same triples — one generation per commit,
// whether the commit comes back from a snapshot or from the log. At the
// previous format a snapshot reload counted triples, so the generation of a
// recovered leader went backwards. Then the same with a torn tail (the last
// commit is gone, and its generation with it) and with the newest snapshot
// unreadable (recovery falls back to the older one and replays more log).
func TestGenerationSurvivesRecovery(t *testing.T) {
	type outcome struct {
		gen     uint64
		triples []string
	}
	for _, tc := range []struct {
		name string
		// run drives st and returns the state recovery must reproduce.
		run func(t *testing.T, st *store.Store, repo *Repository, dir string) outcome
		// crash damages the closed directory.
		crash func(t *testing.T, dir string)
		// snapshotSeq is the snapshot recovery must load.
		snapshotSeq uint64
	}{
		{
			name: "clean",
			run: func(t *testing.T, st *store.Store, repo *Repository, dir string) outcome {
				r := seedRenamer(t, st, 20)
				r.batches(t, 5)
				if err := repo.Snapshot(); err != nil {
					t.Fatal(err)
				}
				r.batches(t, 5)
				return outcome{st.Generation(), tripleSet(st)}
			},
			snapshotSeq: 1,
		},
		{
			name: "torn tail",
			run: func(t *testing.T, st *store.Store, repo *Repository, dir string) outcome {
				r := seedRenamer(t, st, 20)
				r.batches(t, 5)
				if err := repo.Snapshot(); err != nil {
					t.Fatal(err)
				}
				r.batches(t, 4)
				before := outcome{st.Generation(), tripleSet(st)}
				r.batches(t, 1)
				return before
			},
			crash: func(t *testing.T, dir string) {
				seg := filepath.Join(dir, segmentName(2))
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := TruncateFile(seg, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			snapshotSeq: 1,
		},
		{
			name: "newest snapshot corrupt",
			run: func(t *testing.T, st *store.Store, repo *Repository, dir string) outcome {
				r := seedRenamer(t, st, 20)
				for i := 0; i < 2; i++ {
					r.batches(t, 3)
					if err := repo.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
				r.batches(t, 3)
				return outcome{st.Generation(), tripleSet(st)}
			},
			crash: func(t *testing.T, dir string) {
				if err := FlipBit(filepath.Join(dir, snapshotName(2)), 40, 5); err != nil {
					t.Fatal(err)
				}
			},
			snapshotSeq: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, repo := openRepo(t, dir, Options{Fsync: FsyncAlways})
			want := tc.run(t, st, repo, dir)
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.crash != nil {
				tc.crash(t, dir)
			}
			st2, repo2 := openRepo(t, dir, Options{})
			defer repo2.Close()
			if got := repo2.Info().SnapshotSeq; got != tc.snapshotSeq {
				t.Fatalf("recovered from snapshot %d, want %d", got, tc.snapshotSeq)
			}
			if st2.Generation() != want.gen {
				t.Errorf("recovered generation %d, want %d", st2.Generation(), want.gen)
			}
			got := tripleSet(st2)
			if fmt.Sprint(got) != fmt.Sprint(want.triples) {
				t.Errorf("recovered triples differ:\n got %v\nwant %v", got, want.triples)
			}
		})
	}
}
