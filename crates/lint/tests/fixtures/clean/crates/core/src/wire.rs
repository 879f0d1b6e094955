//! Clean wire fixture: encode and decode agree on the tag set exactly. As
//! in the real `wire.rs`, `encode` is a wrapper and the tagged match lives
//! in `encode_into`.

impl Frame {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Ping => buf.put_u8(0),
            Frame::Pong => buf.put_u8(1),
        }
    }

    fn decode(buf: &mut Reader) -> Option<Frame> {
        let tag = buf.get_u8()?;
        match tag {
            0 => Some(Frame::Ping),
            1 => Some(Frame::Pong),
            _ => None,
        }
    }
}
