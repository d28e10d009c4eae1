package persist

// The persist:* fault points prove the degradation contract of the
// durable cache: every injected failure — lock contention, read I/O
// error, write I/O error, corrupted bytes — must degrade to
// recompute-and-serve (a miss, a skipped write, a quarantine), never to
// a failed request or a poisoned cache. Test names carry the Fault
// prefix so `make faults` exercises them twice (state-dependence check).

import (
	"os"
	"testing"

	"efes/internal/faultinject"
)

func TestFaultPersistLockContention(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable("persist:lock", faultinject.Fault{Kind: faultinject.Error})
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("injected lock contention must surface as an Open error")
	}
	// The failure is transient: with the fault disarmed the same dir opens.
	faultinject.Reset()
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestFaultPersistReadDegradesToMiss(t *testing.T) {
	defer faultinject.Reset()
	c := open(t, t.TempDir(), Options{})
	c.Put("stats", "k", []byte("v"))

	faultinject.Enable("persist:read", faultinject.Fault{Kind: faultinject.Error, Times: 1})
	// Touch reads nothing and fires no fault point: the fault is left
	// for the Get.
	c.Touch("stats", "k")
	if _, ok := c.Get("stats", "k"); ok {
		t.Fatal("injected read fault must degrade to a miss")
	}
	st := c.Stats()
	if st.ReadErrors != 1 {
		t.Errorf("readErrors = %d, want 1", st.ReadErrors)
	}
	// The entry itself is intact: the next read (fault exhausted) hits.
	if got, ok := c.Get("stats", "k"); !ok || string(got) != "v" {
		t.Errorf("entry lost after degraded read: %q, %v", got, ok)
	}
}

func TestFaultPersistWriteSkipsTheWrite(t *testing.T) {
	defer faultinject.Reset()
	c := open(t, t.TempDir(), Options{})
	faultinject.Enable("persist:write", faultinject.Fault{Kind: faultinject.Error, Times: 1})
	c.Put("stats", "k", []byte("v"))
	if _, ok := c.Get("stats", "k"); ok {
		t.Fatal("entry stored despite injected write fault")
	}
	st := c.Stats()
	if st.WriteErrors != 1 {
		t.Errorf("writeErrors = %d, want 1", st.WriteErrors)
	}
	// Transient: the retry (fault exhausted) lands.
	c.Put("stats", "k", []byte("v"))
	if got, ok := c.Get("stats", "k"); !ok || string(got) != "v" {
		t.Errorf("retried Put not served: %q, %v", got, ok)
	}
}

func TestFaultPersistCorruptIsQuarantinedOnRead(t *testing.T) {
	defer faultinject.Reset()
	c := open(t, t.TempDir(), Options{})
	faultinject.Enable("persist:corrupt", faultinject.Fault{Kind: faultinject.Error, Times: 1})
	c.Put("stats", "k", []byte("v")) // lands on disk with damaged bytes
	if _, ok := c.Get("stats", "k"); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// Recompute-and-repair: a clean rewrite serves again.
	c.Put("stats", "k", []byte("v"))
	if got, ok := c.Get("stats", "k"); !ok || string(got) != "v" {
		t.Errorf("repaired entry not served: %q, %v", got, ok)
	}
}

// A corrupted entry must also fail verification in a fresh process (the
// scan indexes it, the first Get quarantines it).
func TestFaultPersistCorruptSurvivesRestartAsMiss(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	c := open(t, dir, Options{})
	faultinject.Enable("persist:corrupt", faultinject.Fault{Kind: faultinject.Error, Times: 1})
	c.Put("stats", "k", []byte("v"))
	faultinject.Reset()
	c.Close()

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get("stats", "k"); ok {
		t.Fatal("corrupted entry served after restart")
	}
	if st := c2.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(entryPath(c2, "stats", "k")); !os.IsNotExist(err) {
		t.Error("corrupt entry still in place after quarantine")
	}
}
