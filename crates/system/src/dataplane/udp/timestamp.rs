//! Kernel receive timestamps: `SO_TIMESTAMP` + `recvmsg` cmsg parsing.
//!
//! A userspace `recv` stamps an echo *after* the scheduler got around to
//! waking the prober blocked on its socket; the kernel's `SO_TIMESTAMP`
//! ancillary data records when the datagram actually hit the socket,
//! cutting scheduling jitter out of the RTT. The stamp lives in the
//! CLOCK_REALTIME domain, so the sender's wall-clock send stamp
//! ([`ProbeClock::wall_us`](crate::clock::ProbeClock::wall_us))
//! subtracts cleanly from it.
//!
//! No libc binding is available in this workspace, so the two syscalls
//! are declared by hand behind a `target_os = "linux"` gate; everything
//! degrades to plain `recv` + `None` (monotonic fallback in the caller)
//! when the platform refuses — [`enable`] reports whether the kernel
//! accepted the option, and a missing/foreign cmsg simply yields no
//! stamp.

use std::io;
use std::net::UdpSocket;

/// Arms kernel receive timestamping on `socket`; false when the
/// platform or kernel refuses (callers fall back to monotonic stamps).
pub(crate) fn enable(socket: &UdpSocket) -> bool {
    imp::enable(socket)
}

/// Receives one datagram: its length and the kernel receive stamp
/// (CLOCK_REALTIME microseconds) when one was attached.
pub(crate) fn recv_with_stamp(
    socket: &UdpSocket,
    buf: &mut [u8],
) -> io::Result<(usize, Option<u64>)> {
    imp::recv_with_stamp(socket, buf)
}

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: i32 = 1;
    /// `SO_TIMESTAMP` / `SCM_TIMESTAMP` (the `_OLD` variant all 64-bit
    /// Linux ABIs carry).
    const SO_TIMESTAMP: i32 = 29;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct IoVec {
        iov_base: *mut core::ffi::c_void,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut core::ffi::c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut core::ffi::c_void,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct CmsgHdr {
        cmsg_len: usize,
        cmsg_level: i32,
        cmsg_type: i32,
    }

    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    }

    pub(super) fn enable(socket: &UdpSocket) -> bool {
        let one: i32 = 1;
        // SAFETY: the fd is live for the duration of the call (borrowed
        // from `socket`) and `optval`/`optlen` describe a single local
        // i32 that outlives it.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_TIMESTAMP,
                (&one as *const i32).cast(),
                core::mem::size_of::<i32>() as u32,
            )
        };
        rc == 0
    }

    pub(super) fn recv_with_stamp(
        socket: &UdpSocket,
        buf: &mut [u8],
    ) -> io::Result<(usize, Option<u64>)> {
        let mut iov = IoVec {
            iov_base: buf.as_mut_ptr().cast(),
            iov_len: buf.len(),
        };
        // Room for one cmsghdr + timeval with slack; zeroed so a short
        // kernel write can never leave us parsing stack garbage.
        let mut control = [0u8; 64];
        let mut hdr = MsgHdr {
            msg_name: core::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: &mut iov,
            msg_iovlen: 1,
            msg_control: control.as_mut_ptr().cast(),
            msg_controllen: control.len(),
            msg_flags: 0,
        };
        // SAFETY: the fd is live for the call (borrowed from `socket`).
        // Every pointer in `hdr` refers to memory that outlives the call
        // and that nothing else touches during it: `iov` and `control`
        // are locals, and `buf` is the caller's exclusive borrow. Each
        // length is exactly that of the buffer it describes, so the
        // kernel writes at most `buf.len()` data and `control.len()`
        // control bytes. No name buffer is passed (`msg_name` null,
        // length 0).
        let n = unsafe { recvmsg(socket.as_raw_fd(), &mut hdr, 0) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let written = hdr.msg_controllen.min(control.len());
        Ok((
            n as usize,
            parse_stamp(control.get(..written).unwrap_or(&[])),
        ))
    }

    const HDR: usize = core::mem::size_of::<CmsgHdr>();
    const TV: usize = core::mem::size_of::<Timeval>();

    /// Extracts the `SCM_TIMESTAMP` timeval from the first control
    /// message, if that is what the kernel attached. Takes any byte
    /// slice — any length, any alignment — and never panics.
    fn parse_stamp(control: &[u8]) -> Option<u64> {
        if control.len() < HDR + TV {
            return None;
        }
        // SAFETY: `control.len() >= HDR + TV` puts `HDR` readable bytes
        // at its start. `read_unaligned` needs no alignment, so a slice
        // starting at any address is fine, and every bit pattern is a
        // valid `CmsgHdr` (plain integers).
        let cmsg: CmsgHdr = unsafe { core::ptr::read_unaligned(control.as_ptr().cast()) };
        if cmsg.cmsg_level != SOL_SOCKET
            || cmsg.cmsg_type != SO_TIMESTAMP
            || cmsg.cmsg_len < HDR + TV
        {
            return None;
        }
        // SAFETY: `control.len() >= HDR + TV` keeps `add(HDR)` inside the
        // slice and the `TV` bytes after it readable; as above, no
        // alignment is needed and any bit pattern is a valid `Timeval`.
        let tv: Timeval = unsafe { core::ptr::read_unaligned(control.as_ptr().add(HDR).cast()) };
        let sec = u64::try_from(tv.tv_sec).ok()?;
        let usec = u64::try_from(tv.tv_usec).ok()?;
        Some(sec.saturating_mul(1_000_000).saturating_add(usec))
    }

    #[cfg(test)]
    mod tests {
        use proptest::collection;
        use proptest::prelude::*;

        use super::*;

        /// Slack past a whole header + timeval: oversized buffers.
        const SLACK: usize = 32;

        /// `(level, type, cmsg_len)`: a matching header, or one that misses
        /// on a field; `cmsg_len` below, at and far above `HDR + TV`.
        fn header() -> impl Strategy<Value = (i32, i32, usize)> {
            (
                0u8..4,
                0u8..4,
                0u8..8,
                0usize..2 * (HDR + TV),
                i32::MIN..i32::MAX,
            )
                .prop_map(|(level, kind, len, short, noise)| {
                    (
                        if level == 0 { noise } else { SOL_SOCKET },
                        if kind == 0 { noise ^ 1 } else { SO_TIMESTAMP },
                        if len == 0 { usize::MAX } else { short },
                    )
                })
        }

        /// A kernel-shaped timeval, or one with a negative or saturating
        /// field.
        fn timeval() -> impl Strategy<Value = (i64, i64)> {
            (0u8..8, 0i64..4_000_000_000, 0i64..1_000_000).prop_map(
                |(pick, sec, usec)| match pick {
                    0 => (-sec - 1, usec),
                    1 => (sec, -usec - 1),
                    2 => (i64::MAX, usec),
                    _ => (sec, usec),
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Truncated, oversized and misaligned control buffers over
            /// random bytes: the walk never panics, and yields a stamp
            /// exactly when a whole `SOL_SOCKET`/`SO_TIMESTAMP` header with
            /// `cmsg_len >= HDR + TV` and its timeval are in bounds — then
            /// the microseconds the timeval encodes (none before the epoch).
            #[test]
            fn parse_stamp_reads_any_control_buffer(
                (level, kind, cmsg_len) in header(),
                (tv_sec, tv_usec) in timeval(),
                noise in collection::vec(0u16..256, (8 + HDR + TV + SLACK)..(9 + HDR + TV + SLACK)),
                offset in 0usize..8,
                len in 0usize..(HDR + TV + SLACK + 1),
            ) {
                let mut buf: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
                let cmsg = CmsgHdr { cmsg_len, cmsg_level: level, cmsg_type: kind };
                let tv = Timeval { tv_sec, tv_usec };
                // SAFETY (test): `buf` holds `8 + HDR + TV + SLACK` bytes and
                // `offset < 8`, so both writes are in bounds.
                unsafe {
                    let at = buf.as_mut_ptr().add(offset);
                    core::ptr::write_unaligned(at.cast(), cmsg);
                    core::ptr::write_unaligned(at.add(HDR).cast(), tv);
                }
                let control = &buf[offset..offset + len];
                let stamped = len >= HDR + TV
                    && level == SOL_SOCKET
                    && kind == SO_TIMESTAMP
                    && cmsg_len >= HDR + TV;
                let encoded = u64::try_from(tv_sec)
                    .ok()
                    .zip(u64::try_from(tv_usec).ok())
                    .map(|(s, us)| s.saturating_mul(1_000_000).saturating_add(us));
                prop_assert_eq!(parse_stamp(control), encoded.filter(|_| stamped));
            }
        }

        #[test]
        fn kernel_accepts_so_timestamp() {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            assert!(enable(&s), "linux must accept SO_TIMESTAMP");
        }

        #[test]
        fn recvmsg_returns_data_and_stamp() {
            let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
            assert!(enable(&rx));
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            tx.send_to(b"stamp-me", rx.local_addr().unwrap()).unwrap();
            let mut buf = [0u8; 64];
            let (n, stamp) = recv_with_stamp(&rx, &mut buf).unwrap();
            assert_eq!(&buf[..n], b"stamp-me");
            let stamp = stamp.expect("kernel stamp attached");
            // A sane unix-epoch microsecond value (after 2020-09-13).
            assert!(stamp > 1_600_000_000_000_000, "stamp {stamp}");
        }

        #[test]
        fn foreign_cmsg_yields_no_stamp() {
            let mut control = [0u8; 64];
            let cmsg = CmsgHdr {
                cmsg_len: core::mem::size_of::<CmsgHdr>() + core::mem::size_of::<Timeval>(),
                cmsg_level: SOL_SOCKET,
                cmsg_type: SO_TIMESTAMP + 1, // Not a timestamp.
            };
            // SAFETY (test): buffer is large enough for the header.
            unsafe { core::ptr::write_unaligned(control.as_mut_ptr().cast(), cmsg) };
            assert_eq!(parse_stamp(&control), None);
            assert_eq!(parse_stamp(&[]), None);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::UdpSocket;

    pub(super) fn enable(_socket: &UdpSocket) -> bool {
        false
    }

    pub(super) fn recv_with_stamp(
        socket: &UdpSocket,
        buf: &mut [u8],
    ) -> io::Result<(usize, Option<u64>)> {
        socket.recv(buf).map(|n| (n, None))
    }
}
