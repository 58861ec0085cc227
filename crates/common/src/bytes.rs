//! Byte-level helpers shared by every on-disk and on-wire format: the wire
//! codec's frames, the WAL's segment frames, the checkpoint manifest and
//! the durable-epoch marker all checksum with the one [`crc32`] here.

/// Table-driven CRC-32: `crc32` runs on the commit fast path (one call per
/// logged batch, under the writer mutex) and once per wire frame, so the
/// byte-at-a-time LUT variant matters.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 (IEEE 802.3, reflected) of `data`. Inlinable across
/// crates, as it was beside each of its callers.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
