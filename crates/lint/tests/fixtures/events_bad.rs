// Golden fixture: a protocol enum whose newest variant never made it
// into decode — the frame is rejected on the wire.
pub enum WireEvent {
    Started { window: u64 },
    Finished(u64),
    Aborted,
}

impl WireEvent {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireEvent::Started { window } => frame(0, *window),
            WireEvent::Finished(w) => frame(1, *w),
            WireEvent::Aborted => frame(2, 0),
        }
    }

    pub fn decode(bytes: &[u8]) -> Option<WireEvent> {
        match *bytes.first()? {
            0 => Some(Self::Started { window: body(bytes) }),
            1 => Some(Self::Finished(body(bytes))),
            _ => None,
        }
    }
}
