"""Golden outputs: the SHA-256 of stdout of the commands whose bytes depend
on how a Laurent polynomial is stored, rendered and serialised, or on how a
reply is written: the key-value reports, the JSON term lists and the ideal,
orbit and partition data of the one-shot commands, an orbit reply of each
stabilizer in each space, with the edge replies of the empty partition, its
zero tangent character, `cm fixed` at a size with no staircase and at one
with it, the closure scan at n = 20 in both spaces and all three formats,
and two partitions at the cell cap, whose parts are written the widest:
`part info 200` and `hilb orbit 101,99`.  The digests were taken before each change of storage or of a reply
writer, so any such change must leave every byte of these outputs as it
was."""

import hashlib
import shlex

import pytest

from cmhilb.cli import main

GOLDEN = {
    "cm char-L 1 --format text": "a935007d876b95eb7490b6cc64e572513323418157a4a7a72d8517820bdf9900",
    "cm char-L 1 --format json": "73370b97797a1b573681627b050a6b5c2021e2b02fa41a24dbec15f1c9cffc26",
    "cm char-L 2 --format text": "eaca4faee7b71798d75cd2480198b38d478c18ae6f0c0acf4ebca0e28d5b76de",
    "cm char-L 2 --format json": "b892be16b6242e234a9dc99d1945d469cf9609508b293b36349554227d30eddd",
    "cm char-L 3 --format text": "080fd0a3a1b3930ac6c885ebb12baf711a7aac89d25cdecaeec748ec68aa5b59",
    "cm char-L 3 --format json": "f1abea66a04f286e3f6a830c739fa99ea9ff88f721383c16a40e6256f9bd6862",
    "cm char-L 4 --format text": "e25e4c184361d838267f559243534b74f67cda1314f63f5abc633fa206585dd3",
    "cm char-L 4 --format json": "116acc328e9ac3c0219f1acce415c5caf41d028b8f6b9351a7bed91c88461221",
    "cm char-L 5 --format text": "255d07090268489deae9262216f07bf18274cbee911197bb426b1317add0f251",
    "cm char-L 5 --format json": "a3d468671424fc908bbdd3cf1e9d246b82a3d92430faa9e1f1f2269591710b58",
    "cm char-L 6 --format text": "fadca0e8e6b2db5cf0c804ad4e564cd073daecfe5799a772a22327e0263f8d43",
    "cm char-L 6 --format json": "95611e2361163d137b95480bbb3364ac5eb6b24f826dc29491ff808d62ff6e06",
    "cm char-L 7 --format text": "b93b763c97bec12ff67be183d2f5f887a21c6b169630e79767a2f9f2e2c2db8f",
    "cm char-L 7 --format json": "e5d53418937a92c6e2c211ec7ea47ca310e7b91655f425b8e6fbcbabb52b54bf",
    "cm exponents 15 --format text": "214122874bf45da331fcc7f75858318c00c9c01e601594eb2ec7f3f5aeef6fb3",
    "cm exponents 15 --format json": "2e4ff0c8745f1d9fd9253592d02c9252c5a114b2446a0824bbd6e1d9c648daab",
    "cm exponents 15 --format csv": "c17841cca3f9e7ea48771e82ed5a99bcb29ac9738326df1b2247c2190f6a961a",
    "part info 9,6,3,3,1 --format text": "f279fc691f4a87f85da893cfe5eec9365735a92be663c76cc2ef4ce9a41b2cf0",
    "part info 9,6,3,3,1 --format json": "260e3223834c693943b5632a5fc941300f4e00eb095a25e6cabdf96b64da9ce8",
    "cm tangent 8,5,3,2,1,1 --format text": "0d5a5ca1e0650f600feffb4ab158e4e2b4477aacdd1711cd59e503ac6edce228",
    "cm tangent 8,5,3,2,1,1 --format json": "5c0e696d204c52092f0f71ece39e666b653f369b13b57eccf8b26bde28ceb4c4",
    "hilb ideal 9,7,7,5,4,4,3,2,2,1,1 --format text": "6353e727b946ca98e8e38d314ab4e4ef586b27b50aaeb687066fb418a0fd3b47",
    "hilb ideal 9,7,7,5,4,4,3,2,2,1,1 --format json": "5e5f2d531f167ebd8840c6ea8949fb9c7afd1d20975c9904b923551bd8c57bfd",
    "hilb orbit 9,7,7,5,4,4,3,2,2,1,1 --format text": "78d69121f1d373642812338a09337ed0cd55a6f89d2ef5cd9156cdff181813f1",
    "hilb orbit 9,7,7,5,4,4,3,2,2,1,1 --format json": "56014bab32028c1780f0a6f5266e2d7f841adb801f3266929f246de684b2502b",
    "cm orbit 9,7,7,5,4,4,3,2,2,1,1 --format text": "96137eccff3abe2db14f35be2efbe5a1f1be735c82d9fa6f582c7650e7e71735",
    "cm orbit 9,7,7,5,4,4,3,2,2,1,1 --format json": "8b941d2f693934ec85f5bc77748d01cbfb8622a86c4bd50baa266b14a69d518c",
    "hilb orbit 3,2,1 --format text": "bc1c78dba21970919a4111fe3e75212cc5e7c441c58fc187c8eefa1723852c90",
    "hilb orbit 3,2,1 --format json": "8ce8aa922f518153abbbeb07d3efd55e77d6146ec0cb79c3311889bb9bdf3f52",
    "hilb orbit 3,1 --format text": "abf55be41caf9def6f7d51fd1b6542af56aec622c1e249629485dcea2b493814",
    "hilb orbit 3,1 --format json": "206019881f5546b53a840746b34a704bd9346013b153a9c76bbf316523b67cf7",
    "hilb orbit 2,1,1 --format text": "2b2675c17c68f2b18a99361798368b60bc4cab7cd0428ff5acbf4212aeba5228",
    "hilb orbit 2,1,1 --format json": "ada7c445d2b567374a0c3026dd831499b12bf37449d8645f6622806df491ef1f",
    "hilb orbit 2,2 --format text": "5d8df25ff2cdb52bc59dfbab9236cb4aa8ac8250cb3fb697f1923725c534e75e",
    "hilb orbit 2,2 --format json": "a0658c62548eda98cae990d7bec864db7c10eea882fc17b36b27b14201356b91",
    'hilb orbit "" --format text': "b448a97aad44607cee46bbbfb99b8755d4b39233da0befb3d8b22b031d6dd961",
    'hilb orbit "" --format json': "0b845aceaf43fadcc680c3d3fd6b5a60551704d7d5cd7dadea0063176399fb1b",
    "cm orbit 3,2,1 --format text": "25f8fc6b775c7ecaa11ab8c8658494f0307bd53842bc41eb3fcf02cab3545f14",
    "cm orbit 3,2,1 --format json": "3e5343ddb4df33353223c384107288344b06d0cab620dd32398700a1e62d32fe",
    "cm orbit 2,2 --format text": "0e4fe1984f2170bd61409e7d33d65af13e4358e554acbeb69dcd5af6e05fd15f",
    "cm orbit 2,2 --format json": "4087be55eacc5a7c19434faa40a471420ea56f80b299a44f45ddad1799f97262",
    "cm orbit 3,1 --format text": "d5336cafdca66fd8a549701f3ee6ba95491e0884120d2368b097669e72374a9a",
    "cm orbit 3,1 --format json": "ade07ec50c133c8ba949fc9baedf2dcbccda70da346d74be3a4237f8c9cb5c88",
    'cm orbit "" --format text': "e07175870ab993859a03116484c704de53577cf22087a45e68c289fb61900b46",
    'cm orbit "" --format json': "9f4e0d63ab1248fcb8cde345696fedfe38bbf2face45374cd1ce309668af5e1f",
    "part info 12,10,9,8,7,5,4,3,1,1 --format json": "9169df11f7bfc7c284d64aac002ff7beacd15a04c998dcff48f45c3c7860bfe2",
    "verify fiber-layer-factorization --max-m 12": "70f48996b658c923603748ece4ac34b0b14bf9c4952f22e3e3418dde30f3ec66",
    'part info "" --format text': "c2118a15be4f7ca1df345cbb54bdfb533cd57b56fa4f6c40cd68815790b2d5c3",
    'part info "" --format json': "dc1ecb06f827a97e4330fee7ce09e07ada4f9a57cfe7328f9a576feb5efddc7c",
    'cm tangent "" --format text': "37ea3ad78da70946273fd9599d92c4996dcc2f1eb344202293346e9718f03f73",
    'cm tangent "" --format json': "6dc730b152a1bc0ab27b5afda130d30268c71cb48d86f1bb425ce1986571a69e",
    "cm fixed 20 --format text": "0d7fa1070c8244c45713f52789bcaaa9dd48055b793d654d3f7ceb4d5199ef79",
    "cm fixed 20 --format json": "1b9f6bc4520925662727c79194a03c2f79278d0c678a14e63b084ed96bad6644",
    "cm fixed 21 --format text": "a3fb239e4edbaac7dafd64e7f8b41f5b65d279cdba057d9084726fa7b5677509",
    "cm fixed 21 --format json": "6f87d2a8f84a7afa11e07cf2a811ee8ed8841ad9673a0fd2e410bd2de3a02a11",
    "hilb closure 20 --space hilbert --format text": "3960d9f5ccaad6af9beab52f2dd01276bd57f3ea3f9f9ebd4685e2cc1617fcfd",
    "hilb closure 20 --space hilbert --format json": "7f02b215fbf7bed98b49e55dff4c81476dca9d92794d3922698ae4977d620f5b",
    "hilb closure 20 --space hilbert --format dot": "de3b06706cbe87b127d77318f5f64beac12a0ea9d616d013f316804a5f6073ec",
    "hilb closure 20 --space calogero-moser --format text": "146baf21ef8e060f3c0c8b66f657a17625f6dface507198a6ff16464fd8c371e",
    "hilb closure 20 --space calogero-moser --format json": "072682a9b24f80cf25ab6bcfa018f06fa1282f87d73f60472c4ba956dd943450",
    "hilb closure 20 --space calogero-moser --format dot": "4eadead0a1924dd79eeefd1b07c8e657602adeecd78a6c7b8042eb8b95d150aa",
    "part info 200 --format text": "a18bfe407ea1b272a7f72f467c00929ed78d0bf1242ba250dfb80be31c7da23a",
    "part info 200 --format json": "8a1a02989ee95fbb5a7a6262341466dd260bd4bc3a003b476c60bb3f89b2d4a5",
    "hilb orbit 101,99 --format text": "874dbc9707db4909f12c1b8bd9f451ac0a073943796331062f8cc1e237fd1d68",
    "hilb orbit 101,99 --format json": "9472066ef7faa58bdf59a161057e2a06f3dcccd3fdab55ed2b5f99a0eecdd468",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_stdout_matches_its_golden_digest(capsys, command):
    assert main(shlex.split(command)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[command]
