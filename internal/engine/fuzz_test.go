package engine

import (
	"bytes"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the one decoder, as a log and as a
// checkpoint. No input may panic, and a checkpoint Load accepts must re-save
// to bytes that load to the same state.
func FuzzReplay(f *testing.F) {
	var snap bytes.Buffer
	if err := testDB(f).Save(&snap); err != nil {
		f.Fatal(err)
	}
	db, wal, err := randomLog(1)
	if err != nil {
		f.Fatal(err)
	}
	var logged bytes.Buffer
	if err := db.Save(&logged); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{snap.Bytes(), logged.Bytes(), wal} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		Open().ReplayWAL(bytes.NewReader(data))
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		reloaded, err := Load(&again)
		if err != nil {
			t.Fatalf("a re-saved checkpoint does not load: %v", err)
		}
		sameLayout(t, "re-saved", reloaded, db)
	})
}
