// Golden fixture: the three lock-discipline hazards.
use std::sync::Mutex;

struct Shared {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}

impl Shared {
    fn double_acquire(&self) -> u64 {
        let a = self.alpha.lock();
        let b = self.alpha.lock();
        *a + *b
    }

    fn order_ab(&self) -> u64 {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        *a + *b
    }

    fn order_ba(&self) -> u64 {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        *a + *b
    }

    fn send_under_guard(&self, tx: &Sender<u64>) {
        let g = self.alpha.lock();
        tx.send(*g);
    }

    fn temp_guard_in_send(&self, tx: &Sender<u64>) {
        tx.send(*self.beta.lock());
    }
}

// The drain-and-ship hazard, in the shape the ingest plane had while it
// kept a mutex-guarded overflow map (it is single-owner now and holds no
// lock): the drained snapshot must only be shipped *after* the guard is
// gone. Holding it across the send couples the sealer to every folder.
struct IngestPlane {
    overflow: Mutex<Vec<(u64, u64)>>,
}

impl IngestPlane {
    fn seal_under_guard(&self, window: u64, tx: &Sender<Vec<(u64, u64)>>) {
        let mut ov = self.overflow.lock();
        let drained = ov.drain(..).filter(|e| e.0 == window).collect();
        tx.send(drained);
    }
}
